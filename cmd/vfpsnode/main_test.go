package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFiveProcessDeployment builds the vfpsnode binary and runs the full
// topology — key server, three participants, aggregation server, leader — as
// six separate OS processes exchanging real TCP traffic, then checks the
// leader completes a selection.
func TestFiveProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "vfpsnode")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building vfpsnode: %v", err)
	}

	var procs []*exec.Cmd
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
			p.Wait()
		}
	})

	// start launches a serving role and returns its bound address, parsed
	// from the "... listening on ADDR" banner.
	start := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		scanner := bufio.NewScanner(stdout)
		deadline := time.After(30 * time.Second)
		lineCh := make(chan string, 1)
		go func() {
			if scanner.Scan() {
				lineCh <- scanner.Text()
			}
			close(lineCh)
		}()
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("role %v exited before announcing its address", args)
			}
			idx := strings.LastIndex(line, "listening on ")
			if idx < 0 {
				t.Fatalf("unexpected banner %q", line)
			}
			return strings.TrimSpace(line[idx+len("listening on "):])
		case <-deadline:
			t.Fatalf("timeout waiting for role %v", args)
		}
		return ""
	}

	const (
		dataset = "Rice"
		rows    = "120"
		parties = 3
	)
	scheme := os.Getenv("VFPSNODE_TEST_SCHEME")
	if scheme == "" {
		scheme = "plain"
	}
	keyAddr := start("-role", "keyserver", "-scheme", scheme, "-keybits", "256",
		"-parties", fmt.Sprint(parties), "-addr", "127.0.0.1:0")
	dir := fmt.Sprintf("keyserver=%s", keyAddr)

	partyAddrs := make([]string, parties)
	for i := 0; i < parties; i++ {
		partyAddrs[i] = start("-role", "party", "-index", fmt.Sprint(i),
			"-dataset", dataset, "-rows", rows, "-parties", fmt.Sprint(parties),
			"-addr", "127.0.0.1:0", "-directory", dir)
		dir += fmt.Sprintf(",party/%d=%s", i, partyAddrs[i])
	}
	aggAddr := start("-role", "aggserver", "-addr", "127.0.0.1:0", "-directory", dir)
	dir += ",aggserver=" + aggAddr

	leader := exec.Command(bin, "-role", "leader",
		"-dataset", dataset, "-rows", rows, "-parties", fmt.Sprint(parties),
		"-select", "2", "-k", "5", "-queries", "8", "-directory", dir)
	out, err := leader.CombinedOutput()
	if err != nil {
		t.Fatalf("leader failed: %v\n%s", err, out)
	}
	output := string(out)
	if !strings.Contains(output, "selected participants:") {
		t.Fatalf("leader output missing selection:\n%s", output)
	}
	if !strings.Contains(output, "similarity matrix") {
		t.Fatalf("leader output missing similarity matrix:\n%s", output)
	}
	t.Logf("leader output:\n%s", output)
}

// TestFiveProcessDeploymentSchemes re-runs the multi-process topology under
// the real Paillier and secure-aggregation protections.
func TestFiveProcessDeploymentSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	for _, scheme := range []string{"paillier", "secagg"} {
		t.Run(scheme, func(t *testing.T) {
			t.Setenv("VFPSNODE_TEST_SCHEME", scheme)
			TestFiveProcessDeployment(t)
		})
	}
}

func TestParseDirectory(t *testing.T) {
	dir, err := parseDirectory("a=1.2.3.4:5, b=6.7.8.9:10")
	if err != nil {
		t.Fatal(err)
	}
	if dir["a"] != "1.2.3.4:5" || dir["b"] != "6.7.8.9:10" {
		t.Fatalf("parsed %v", dir)
	}
	if _, err := parseDirectory("missing-equals"); err == nil {
		t.Fatal("expected parse error")
	}
	empty, err := parseDirectory("")
	if err != nil || len(empty) != 0 {
		t.Fatal("empty directory should parse")
	}
}

func TestGreedySelectLocal(t *testing.T) {
	w := [][]float64{
		{1.00, 0.95, 0.30},
		{0.95, 1.00, 0.30},
		{0.30, 0.30, 1.00},
	}
	sel, value, err := greedySelect(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selection %v", sel)
	}
	has2 := sel[0] == 2 || sel[1] == 2
	if !has2 {
		t.Fatalf("diverse element not selected: %v", sel)
	}
	if value <= 0 {
		t.Fatal("value missing")
	}
	if _, _, err := greedySelect(w, 0); err == nil {
		t.Fatal("expected count error")
	}
	if _, _, err := greedySelect(w, 4); err == nil {
		t.Fatal("expected count>P error")
	}
}

func TestSampleQueriesHelper(t *testing.T) {
	q := sampleQueries(100, 10)
	if len(q) != 10 {
		t.Fatalf("got %d", len(q))
	}
	seen := map[int]bool{}
	for _, i := range q {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad queries %v", q)
		}
		seen[i] = true
	}
	if len(sampleQueries(5, 10)) != 5 {
		t.Fatal("clamp failed")
	}
}

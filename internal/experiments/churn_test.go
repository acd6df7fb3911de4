package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestChurnBenchmark(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{
		Rows:    48,
		Queries: 3,
		K:       3,
		Seed:    1,
		Out:     &buf,
	}
	// Shrunken key width: the real harness runs 512-bit keys.
	res, err := churnAt(context.Background(), opt, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseParties != 6 || res.FinalParties != 7 {
		t.Fatalf("party floor not applied: %d -> %d", res.BaseParties, res.FinalParties)
	}
	if !res.JoinMatch || !res.LeaveMatch || !res.RevisitMatch {
		t.Fatalf("identity contract violated: join=%v leave=%v revisit=%v",
			res.JoinMatch, res.LeaveMatch, res.RevisitMatch)
	}
	if res.ColdEncryptions <= 0 || res.JoinEncryptions <= 0 {
		t.Fatalf("encryption accounting missing: cold=%d join=%d", res.ColdEncryptions, res.JoinEncryptions)
	}
	// The in-place join pays encryption essentially only for the joiner: at
	// 6 surviving parties the delta cache must cut encryptions well past the
	// 2x gate bench_compare.sh enforces.
	if res.HEReduction < 2.0 {
		t.Fatalf("incremental join reduced encryptions only %.2fx (cold %d, join %d)",
			res.HEReduction, res.ColdEncryptions, res.JoinEncryptions)
	}
	if res.RevisitHEOps != 0 {
		t.Fatalf("roster revisit still paid %d HE ops", res.RevisitHEOps)
	}
	out := buf.String()
	if !strings.Contains(out, "Membership churn") || !strings.Contains(out, "incremental join") {
		t.Fatalf("table output missing:\n%s", out)
	}
}

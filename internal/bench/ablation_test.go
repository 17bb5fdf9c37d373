package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestAblationStallFactorOpensGap(t *testing.T) {
	sec := RunAblationStall()
	if len(sec.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(sec.Rows))
	}
	// With stall 1.0 the interleaved/replicated gap must vanish; with the
	// calibrated 1.25 it must exist.
	if !strings.Contains(sec.Rows[0].Value, "gap 0%") {
		t.Errorf("stall=1.0 should collapse the gap: %s", sec.Rows[0].Value)
	}
	if strings.Contains(sec.Rows[1].Value, "gap 0%") {
		t.Errorf("stall=1.25 should open a gap: %s", sec.Rows[1].Value)
	}
}

func TestAblationLocalityBoostMonotone(t *testing.T) {
	sec := RunAblationLocalityBoost()
	if len(sec.Rows) != 4 {
		t.Fatalf("rows = %d", len(sec.Rows))
	}
	// Higher boost -> more cache hits -> less DRAM traffic -> faster.
	var prev float64 = 1e18
	for _, r := range sec.Rows {
		var secs float64
		if _, err := parseSeconds(r.Value, &secs); err != nil {
			t.Fatalf("unparseable row %q: %v", r.Value, err)
		}
		if secs > prev {
			t.Errorf("time not monotone in boost: %q", r.Value)
		}
		prev = secs
	}
}

func parseSeconds(s string, out *float64) (int, error) {
	var gbps float64
	return fmt.Sscanf(s, "%f s (%f GB/s)", out, &gbps)
}

// TestAblationUnpackBeatsPerElementGet checks the section's structure only:
// four rows whose values parse and are positive. The ordering the name
// promises is one-shot wall-clock time, too noisy to assert here; the
// measured harness's bitpack.sum_ns_per_elem.* and core.reduce_ns_per_elem
// rows are the evidence for it. The ratios are logged for the curious.
func TestAblationUnpackBeatsPerElementGet(t *testing.T) {
	sec := RunAblationUnpack()
	if len(sec.Rows) != 4 {
		t.Fatalf("rows = %d", len(sec.Rows))
	}
	ns := make([]float64, len(sec.Rows))
	for i, row := range sec.Rows {
		if _, err := fmt.Sscanf(row.Value, "%f ns/elem", &ns[i]); err != nil {
			t.Fatalf("row %d value %q: %v", i, row.Value, err)
		}
		if ns[i] <= 0 {
			t.Errorf("row %d: %v ns/elem, want > 0", i, ns[i])
		}
	}
	get, iter, fused := ns[0], ns[1], ns[3]
	t.Logf("iterator/get %.2f, fused/get %.2f, fused/iterator %.2f", iter/get, fused/get, fused/iter)
}

func TestAblationRandomizationSpreads(t *testing.T) {
	sec := RunAblationRandomization()
	if !strings.Contains(sec.Rows[0].Value, "1 socket") {
		t.Errorf("plain indexing row: %s", sec.Rows[0].Value)
	}
	if !strings.Contains(sec.Rows[1].Value, "2 socket") {
		t.Errorf("randomized indexing row: %s", sec.Rows[1].Value)
	}
}

func TestAblationGrainRuns(t *testing.T) {
	sec := RunAblationGrain()
	if len(sec.Rows) != 5 {
		t.Fatalf("rows = %d", len(sec.Rows))
	}
}

func TestPrintAblations(t *testing.T) {
	var buf bytes.Buffer
	PrintAblations(&buf, RunAblations())
	for _, want := range []string{"remote-stall", "locality boost", "batch grain", "scan strategy", "randomization"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

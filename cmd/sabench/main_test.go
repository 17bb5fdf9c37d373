package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenStdout pins the stdout of the deterministic tables: the
// modeled Figure 2, Table 1 and the STREAM rows, none of which depends on
// -elements.
func TestGoldenStdout(t *testing.T) {
	for name, args := range map[string][]string{
		"fig2":   {"-fig", "2", "-elements", "4096"},
		"table1": {"-fig", "table1"},
		"stream": {"-fig", "stream", "-elements", "4096"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("sabench %v stdout differs from %s (rerun with -update if the change is intended):\n%s",
					args, golden, out.Bytes())
			}
		})
	}
}

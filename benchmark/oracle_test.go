package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"smartarrays/internal/colstore"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/queryd"
	"smartarrays/internal/queryd/plan"
	"smartarrays/internal/rts"
)

// testTable is a 10 k-row table shaped like the served one, plus a key
// column too wide for the oracle's slice-indexed groups.
func testTable(t *testing.T) *colstore.Table {
	t.Helper()
	const rows = 10000
	tbl, err := colstore.NewTable(rts.New(machine.X52Small()), rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	cols := map[string][]uint64{"id": {}, "region": {}, "amount": {}, "flag": {}, "wide": {}}
	for i := uint64(0); i < rows; i++ {
		r := splitmix64(i)
		cols["id"] = append(cols["id"], i)
		cols["region"] = append(cols["region"], r%16)
		cols["amount"] = append(cols["amount"], (r>>16)%65536)
		cols["flag"] = append(cols["flag"], (r>>40)&3/3)
		cols["wide"] = append(cols["wide"], 1<<20+(r>>8)%50)
	}
	for _, name := range []string{"id", "region", "amount", "flag", "wide"} {
		if _, err := tbl.AddColumn(name, cols[name], colstore.Options{Placement: memsim.Interleaved}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// The oracle's plain loops and colstore's scan pipeline must agree on every
// plan shape the workloads send, and on the corners they do not.
func TestOracleMatchesColstore(t *testing.T) {
	tbl := testTable(t)
	orc, err := newOracle(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !orc.ascending["id"] || orc.ascending["amount"] {
		t.Fatalf("ascending columns detected as %v", orc.ascending)
	}

	var bodies []string
	for n := uint64(0); n < 64; n++ {
		bodies = append(bodies, string(scanUniqueBody(9, n)))
		// Windows are placed on the 4 M-row table; shrink them onto this one.
		p, _ := plan.Parse(scanSelectiveBody(9, n))
		lo, w := p.Preds[0].Value%9000, p.Preds[1].Value-p.Preds[0].Value
		bodies = append(bodies, fmt.Sprintf(`{"dataset":"demo","op":"%s","key":"%s","agg":"sum","column":"amount","where":[{"column":"id","op":">=","value":%d},{"column":"id","op":"<","value":%d}]}`,
			p.Op, p.Key, lo, lo+w))
	}
	for i := range bodies {
		bodies[i] = strings.Replace(bodies[i], `"key":"",`, "", 1)
	}
	for _, agg := range []string{"sum", "count", "min", "max"} {
		for _, where := range []string{
			``,
			`,"where":[{"column":"amount","op":"=","value":4242}]`,                                          // almost nothing matches
			`,"where":[{"column":"amount","op":">","value":70000}]`,                                         // nothing matches
			`,"where":[{"column":"id","op":"<=","value":5000},{"column":"id","op":">","value":4990}]`,       // Le and Gt on the sorted column
			`,"where":[{"column":"id","op":"!=","value":17},{"column":"flag","op":"=","value":1}]`,          // no narrowing for != and =
			`,"where":[{"column":"id","op":">=","value":20000}]`,                                            // empty row range
			`,"where":[{"column":"region","op":"<","value":3},{"column":"amount","op":">=","value":30000}]`, // two unsorted columns
		} {
			bodies = append(bodies,
				fmt.Sprintf(`{"dataset":"demo","op":"aggregate","agg":"%s","column":"amount"%s}`, agg, where),
				fmt.Sprintf(`{"dataset":"demo","op":"groupby","key":"region","agg":"%s","column":"id"%s}`, agg, where),
				fmt.Sprintf(`{"dataset":"demo","op":"groupby","key":"wide","agg":"%s","column":"amount"%s}`, agg, where))
		}
	}

	for _, body := range bodies {
		p, err := plan.Parse([]byte(body))
		if err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		var want any
		if p.Op == plan.OpAggregate {
			v, err := tbl.Aggregate(p.Agg, p.Column, p.Preds...)
			if err != nil {
				t.Fatal(err)
			}
			want = queryd.AggregateResult{Value: v}
		} else {
			rows, err := tbl.GroupBy(p.Key, p.Agg, p.Column, p.Preds...)
			if err != nil {
				t.Fatal(err)
			}
			res := queryd.GroupByResult{Groups: []queryd.GroupResult{}}
			for _, r := range rows {
				res.Groups = append(res.Groups, queryd.GroupResult{Key: r.Key, Value: r.Value})
			}
			want = res
		}
		// Through the reply checker, so the wire decoding is covered too.
		result, _ := json.Marshal(want)
		reply := fmt.Sprintf(`{"op":"%s","result":%s,"wall_ms":1.5}`, p.Op, result)
		if err := orc.checkTable([]byte(body), []byte(reply)); err != nil {
			t.Errorf("oracle disagrees with colstore: %v", err)
		}
	}

	// And it must notice a wrong answer.
	body := []byte(`{"dataset":"demo","op":"aggregate","agg":"count","column":"amount"}`)
	if err := orc.checkTable(body, []byte(`{"op":"aggregate","result":{"value":9999}}`)); err == nil {
		t.Error("oracle accepted count = 9999 on a 10000-row table")
	}
	if err := orc.checkTable(body, []byte(`{"op":"aggregate","result":{"value":10000}}`)); err != nil {
		t.Errorf("oracle rejected the right count: %v", err)
	}
	group := []byte(`{"dataset":"demo","op":"groupby","key":"flag","agg":"count","column":"id","where":[{"column":"flag","op":"=","value":1}]}`)
	if err := orc.checkTable(group, []byte(`{"op":"groupby","result":{"groups":[{"key":0,"value":0},{"key":1,"value":2499}]}}`)); err == nil {
		t.Error("oracle accepted a group with no rows")
	}
}

// The rank oracle's plain loop must agree with the served pagerank on
// graphs with and without sinks, and a reply that strays must be caught.
func TestRankOracleMatchesServer(t *testing.T) {
	for _, seed := range []uint64{1, 11, 1904336} {
		spec := queryd.DatasetSpec{Name: datasetName, Vertices: 3000, Degree: 8, Seed: datasetSeed(seed)}
		srv, err := queryd.NewServer(rts.New(machine.X52Small()), queryd.DefaultConfig(), []queryd.DatasetSpec{spec}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ds, err := srv.Dataset(datasetName)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(rankRequest)))
		reply := rec.Body.Bytes()

		rc := &rankChecker{want: newRankOracle(ds.Graph, rankIters)}
		if err := rc.check(reply); err != nil {
			t.Fatalf("seed %d: served reply rejected: %v", seed, err)
		}
		if err := rc.check(reply); err != nil {
			t.Errorf("seed %d: identical reply rejected: %v", seed, err)
		}
		var resp wireResponse
		var res queryd.PageRankResult
		if json.Unmarshal(reply, &resp) != nil || json.Unmarshal(resp.Result, &res) != nil {
			t.Fatalf("seed %d: undecodable reply %s", seed, reply)
		}
		if err := rc.want.agrees(res.Iters, res.RankSum); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := rc.want.agrees(res.Iters-1, res.RankSum); err == nil {
			t.Errorf("seed %d: in-process run with another iteration count accepted", seed)
		}
		stray := []func(*queryd.PageRankResult){
			func(r *queryd.PageRankResult) { r.Iters++ },
			func(r *queryd.PageRankResult) { r.RankSum *= 1 + 1e-6 },
			func(r *queryd.PageRankResult) { r.Top[0].Vertex = r.Top[1].Vertex },
			func(r *queryd.PageRankResult) { r.Top[2].Rank *= 1 + 1e-6 },
			func(r *queryd.PageRankResult) { r.Top = nil },
		}
		for i, mutate := range stray {
			bad := res
			bad.Top = append([]queryd.VertexRank(nil), res.Top...)
			mutate(&bad)
			if err := rc.want.check(bad); err == nil {
				t.Errorf("seed %d: stray reply %d accepted", seed, i)
			}
		}
		// Same values, other bytes: right by the oracle, but not the run's answer.
		if err := rc.check(bytes.Replace(reply, []byte(`"iters":`), []byte(`"iters": `), 1)); err == nil {
			t.Errorf("seed %d: a changed result within one run was accepted", seed)
		}
	}
	if err := (&rankChecker{}).check([]byte(`{"result":`)); err == nil {
		t.Error("accepted an undecodable reply")
	}
}

func TestStderrPanics(t *testing.T) {
	path := t.TempDir() + "/stderr"
	clean := "saserve: demo on http://127.0.0.1:1 (2x8-core Xeon; 4 rows, 4 vertices)\nsaserve: shutting down\n"
	if err := os.WriteFile(path, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, err := stderrPanics(path); err != nil || len(bad) != 0 {
		t.Errorf("clean stderr reported %v, %v", bad, err)
	}
	if err := os.WriteFile(path, []byte(clean+"panic: core: range [0,9) out of bounds [0,4)\n\ngoroutine 7 [running]:\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, _ := stderrPanics(path); len(bad) != 1 {
		t.Errorf("panic line not found: %v", bad)
	}
}

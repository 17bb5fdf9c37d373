package plan

import (
	"strings"
	"testing"

	"smartarrays/internal/colstore"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want func(*testing.T, *Plan)
	}{
		{"aggregate-with-where",
			`{"dataset":"d","op":"aggregate","agg":"sum","column":"amount",
			  "where":[{"column":"region","op":"<","value":8},{"column":"flag","op":"=","value":1}]}`,
			func(t *testing.T, p *Plan) {
				if p.Op != OpAggregate || p.Agg != colstore.Sum || p.Column != "amount" {
					t.Fatalf("plan = %+v", p)
				}
				if len(p.Preds) != 2 || p.Preds[0].Op != colstore.Lt || p.Preds[1].Op != colstore.Eq {
					t.Fatalf("preds = %+v", p.Preds)
				}
			}},
		{"groupby",
			`{"dataset":"d","op":"groupby","key":"region","agg":"count","column":"id"}`,
			func(t *testing.T, p *Plan) {
				if p.Op != OpGroupBy || p.Key != "region" || p.Agg != colstore.Count {
					t.Fatalf("plan = %+v", p)
				}
			}},
		{"pagerank-default-iters",
			`{"dataset":"d","op":"pagerank"}`,
			func(t *testing.T, p *Plan) {
				if p.Op != OpPageRank || p.Iters != 20 {
					t.Fatalf("plan = %+v", p)
				}
			}},
		{"bfs-with-source",
			`{"dataset":"d","op":"bfs","source":42}`,
			func(t *testing.T, p *Plan) {
				if p.Op != OpBFS || p.Source != 42 {
					t.Fatalf("plan = %+v", p)
				}
			}},
		{"degree-with-admission-metadata",
			`{"dataset":"d","op":"degree","priority":-3,"tenant":"acme","deadline_ms":250}`,
			func(t *testing.T, p *Plan) {
				if p.Priority != -3 || p.Tenant != "acme" || p.DeadlineMS != 250 {
					t.Fatalf("plan = %+v", p)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			tc.want(t, p)
			if p.String() == "" {
				t.Fatal("empty String()")
			}
		})
	}
}

// TestPlanString pins the description every query's profile carries
// (the slow-query log's "plan" field), one case per op.
func TestPlanString(t *testing.T) {
	for in, want := range map[string]string{
		`{"dataset":"d","op":"aggregate","agg":"sum","column":"amount","where":[{"column":"region","op":"<","value":8}]}`: "sum(amount) on d (1 preds)",
		`{"dataset":"d","op":"groupby","key":"region","agg":"count","column":"id"}`:                                       "count(id) by region on d (0 preds)",
		`{"dataset":"d","op":"pagerank","iters":5}`:                                                                       "pagerank(5 iters) on d",
		`{"dataset":"d","op":"bfs","source":42}`:                                                                          "bfs(from 42) on d",
		`{"dataset":"d","op":"degree"}`:                                                                                   "degree on d",
	} {
		p, err := Parse([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.String(); got != want {
			t.Errorf("%s: String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string // substring the error must contain
	}{
		{"bad-json", `{`, "decoding"},
		{"trailing-data", `{"dataset":"d","op":"degree"}{}`, "trailing"},
		{"missing-dataset", `{"op":"degree"}`, "missing dataset"},
		{"missing-op", `{"dataset":"d"}`, "missing op"},
		{"unknown-op", `{"dataset":"d","op":"truncate"}`, "unknown op"},
		{"unknown-field", `{"dataset":"d","op":"degree","colunm":"x"}`, "unknown field"},
		{"unknown-agg", `{"dataset":"d","op":"aggregate","agg":"avg","column":"x"}`, "unknown agg"},
		{"aggregate-missing-column", `{"dataset":"d","op":"aggregate","agg":"sum"}`, "requires a column"},
		{"aggregate-with-key", `{"dataset":"d","op":"aggregate","agg":"sum","column":"x","key":"y"}`, "groupby"},
		{"groupby-missing-key", `{"dataset":"d","op":"groupby","agg":"sum","column":"x"}`, "key"},
		{"bad-pred-op", `{"dataset":"d","op":"aggregate","agg":"sum","column":"x","where":[{"column":"y","op":"~","value":1}]}`, "predicate op"},
		{"pred-missing-column", `{"dataset":"d","op":"aggregate","agg":"sum","column":"x","where":[{"op":"=","value":1}]}`, "predicate missing column"},
		{"pagerank-zero-iters", `{"dataset":"d","op":"pagerank","iters":0}`, "out of range"},
		{"pagerank-iters-too-high", `{"dataset":"d","op":"pagerank","iters":101}`, "out of range"},
		{"negative-deadline", `{"dataset":"d","op":"degree","deadline_ms":-1}`, "deadline_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatal("Parse accepted invalid input")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestAggNameRoundTrip(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max"} {
		p, err := Parse([]byte(`{"dataset":"d","op":"aggregate","agg":"` + name + `","column":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		if got := AggName(p.Agg); got != name {
			t.Fatalf("AggName(%v) = %q, want %q", p.Agg, got, name)
		}
	}
}

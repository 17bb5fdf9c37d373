package encoding

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func checkRoundTrip(t *testing.T, e Encoded, values []uint64) {
	t.Helper()
	if e.Length() != uint64(len(values)) {
		t.Fatalf("%v: length %d, want %d", e.Kind(), e.Length(), len(values))
	}
	for i, want := range values {
		if got := e.Get(uint64(i)); got != want {
			t.Fatalf("%v: Get(%d) = %d, want %d", e.Kind(), i, got, want)
		}
	}
}

func TestAllEncodingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := map[string][]uint64{
		"random":      nil,
		"runs":        nil,
		"fewDistinct": nil,
		"sorted":      nil,
		"single":      {42},
		"zeros":       make([]uint64, 100),
	}
	random := make([]uint64, 500)
	runs := make([]uint64, 500)
	few := make([]uint64, 500)
	sorted := make([]uint64, 500)
	for i := range random {
		random[i] = rng.Uint64() >> 20
		runs[i] = uint64(i / 50)
		few[i] = uint64(rng.Intn(4)) * 1_000_000_007
		sorted[i] = uint64(i) * 3
	}
	inputs["random"], inputs["runs"], inputs["fewDistinct"], inputs["sorted"] = random, runs, few, sorted

	for name, values := range inputs {
		for _, e := range []Encoded{NewPlain(values), NewBitPacked(values), NewDict(values), NewRLE(values)} {
			t.Run(name+"/"+e.Kind().String(), func(t *testing.T) {
				checkRoundTrip(t, e, values)
				dec := Decode(e.(ChunkCodec))
				for i := range values {
					if dec[i] != values[i] {
						t.Fatalf("Decode mismatch at %d", i)
					}
				}
			})
		}
	}
}

func TestDictCompactsFewDistinct(t *testing.T) {
	values := make([]uint64, 10_000)
	for i := range values {
		values[i] = uint64(i%3) * 0xDEADBEEF00 // 3 distinct, huge magnitudes
	}
	d := NewDict(values)
	if len(d.dict) != 3 {
		t.Fatalf("distinct = %d, want 3", len(d.dict))
	}
	// 2-bit IDs: ~2.5 KB vs 80 KB plain.
	if d.PayloadBytes() >= NewBitPacked(values).PayloadBytes() {
		t.Errorf("dict (%d B) should beat bitpacked (%d B) on few-distinct data",
			d.PayloadBytes(), NewBitPacked(values).PayloadBytes())
	}
}

func TestRLECompactsRuns(t *testing.T) {
	values := make([]uint64, 100_000)
	for i := range values {
		values[i] = uint64(i / 10_000) // 10 long runs
	}
	r := NewRLE(values)
	if r.runs != 10 {
		t.Fatalf("runs = %d, want 10", r.runs)
	}
	if r.PayloadBytes() >= 1000 {
		t.Errorf("RLE payload = %d B, want tiny for 10 runs", r.PayloadBytes())
	}
	// Random access across run boundaries.
	for _, idx := range []uint64{0, 9_999, 10_000, 55_555, 99_999} {
		if got := r.Get(idx); got != idx/10_000 {
			t.Errorf("Get(%d) = %d, want %d", idx, got, idx/10_000)
		}
	}
}

func TestRLEGetPanicsOutOfRange(t *testing.T) {
	r := NewRLE([]uint64{1, 1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Get(3)
}

func TestSelectPicksTheRightTechnique(t *testing.T) {
	long := make([]uint64, 50_000)
	for i := range long {
		long[i] = uint64(i / 5_000)
	}
	e, err := Select(long)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != RLE {
		t.Errorf("long runs selected %v, want rle", e.Kind())
	}

	few := make([]uint64, 50_000)
	rng := rand.New(rand.NewSource(1))
	for i := range few {
		few[i] = uint64(rng.Intn(7)) * 0xABCDEF012345 // high entropy order, few values
	}
	e, err = Select(few)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != Dict {
		t.Errorf("few-distinct selected %v, want dictionary", e.Kind())
	}

	smallRandom := make([]uint64, 50_000)
	for i := range smallRandom {
		smallRandom[i] = rng.Uint64() % 1000 // ~1000 distinct small values
	}
	e, err = Select(smallRandom)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind() != BitPacked && e.Kind() != Dict {
		t.Errorf("small random selected %v, want bitpacked or dictionary", e.Kind())
	}

	if _, err := Select(nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestSelectNeverLosesToPlain(t *testing.T) {
	f := func(values []uint64) bool {
		if len(values) == 0 {
			return true
		}
		e, err := Select(values)
		if err != nil {
			return false
		}
		if e.PayloadBytes() > NewPlain(values).PayloadBytes() {
			return false
		}
		// And round-trips.
		for i, v := range values {
			if e.Get(uint64(i)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: RLE random access equals the reference for arbitrary runs.
func TestQuickRLERandomAccess(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var values []uint64
		for len(values) < 2000 {
			v := uint64(rng.Intn(5))
			n := rng.Intn(200) + 1
			for i := 0; i < n; i++ {
				values = append(values, v)
			}
		}
		r := NewRLE(values)
		for trial := 0; trial < 200; trial++ {
			i := uint64(rng.Intn(len(values)))
			if r.Get(i) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Plain: "plain", BitPacked: "bitpacked", Dict: "dictionary", RLE: "rle", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

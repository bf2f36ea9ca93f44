package series

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRingDecimation drives the ring the way the sim sampler does —
// decimate on overflow, skip the off-grid trigger sample, continue on the
// doubled interval — and checks the survivors stay an exact cumulative
// series on a power-of-two-coarsened grid.
func TestRingDecimation(t *testing.T) {
	r := NewRing(100, 8)
	next := r.Every()
	decimations := 0
	for step := 0; step < 60; step++ {
		refs := next
		if r.Full() {
			r.Decimate()
			decimations++
			next = (refs/r.Every() + 1) * r.Every()
			continue
		}
		r.Push(Point{Refs: refs, Accesses: refs * 10})
		next = (refs/r.Every() + 1) * r.Every()
	}
	if decimations == 0 {
		t.Fatal("60 epochs over an 8-slot ring never decimated")
	}
	if r.Every()%100 != 0 || (r.Every()/100)&(r.Every()/100-1) != 0 {
		t.Fatalf("interval %d is not a power-of-two multiple of 100", r.Every())
	}
	pts := r.Points()
	if len(pts) == 0 || len(pts) > 8 {
		t.Fatalf("ring holds %d points, want 1..8", len(pts))
	}
	var prev uint64
	for i, p := range pts {
		if p.Refs <= prev {
			t.Fatalf("point %d out of order: %d after %d", i, p.Refs, prev)
		}
		if p.Refs%r.Every() != 0 {
			t.Fatalf("point %d at %d is off the %d grid", i, p.Refs, r.Every())
		}
		if p.Accesses != p.Refs*10 {
			t.Fatalf("point %d no longer cumulative-exact: refs=%d accesses=%d",
				i, p.Refs, p.Accesses)
		}
		prev = p.Refs
	}
}

func TestRingNoRealloc(t *testing.T) {
	r := NewRing(10, 4)
	first := &r.pts[:cap(r.pts)][0]
	for i := uint64(1); i <= 100; i++ {
		r.Push(Point{Refs: i * 10})
	}
	if first != &r.pts[:cap(r.pts)][0] {
		t.Fatal("ring reallocated its backing array")
	}
}

// TestRecordsForDeltas: flush-time differencing against the zero point,
// with the census passed through as a snapshot, not differenced.
func TestRecordsForDeltas(t *testing.T) {
	p1 := Point{Refs: 100, Accesses: 90, L1Misses: 10, Walks: 5, WalkRefs: 20, Promotions: 2}
	p1.PromosByOrder[9] = 2
	p1.Census[0] = 50
	p2 := Point{Refs: 200, Accesses: 185, L1Misses: 12, Walks: 6, WalkRefs: 22, Promotions: 3}
	p2.PromosByOrder[9] = 2
	p2.PromosByOrder[18] = 1
	p2.Census[0] = 10
	p2.Census[9] = 1

	recs := RecordsFor(Meta{Workload: "w", Scheme: "tps", Seed: 42}, 100, []Point{p1, p2})
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Delta.Refs != 100 || recs[0].Delta.Accesses != 90 {
		t.Fatalf("epoch 0 delta wrong: %+v", recs[0].Delta)
	}
	if recs[1].Delta.Refs != 100 || recs[1].Delta.Accesses != 95 || recs[1].Delta.L1Misses != 2 {
		t.Fatalf("epoch 1 delta wrong: %+v", recs[1].Delta)
	}
	if recs[1].Promos[9] != 0 || recs[1].Promos[18] != 1 {
		t.Fatalf("epoch 1 promotion deltas wrong: %v", recs[1].Promos)
	}
	if recs[1].Census[0] != 10 || recs[1].Census[9] != 1 {
		t.Fatalf("census must be a snapshot, got %v", recs[1].Census)
	}
	if got := recs[1].MeanWalkDepth(); got != 2 {
		t.Fatalf("MeanWalkDepth = %v, want 2", got)
	}
	if got := recs[1].L1MissRate(); got != 2.0/95 {
		t.Fatalf("L1MissRate = %v", got)
	}
}

func TestLogAndReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	pts := []Point{{Refs: 100, Accesses: 80}, {Refs: 200, Accesses: 170}}
	l.WriteCell(Meta{Workload: "gups", Scheme: "tps", Seed: 1}, 100, pts)
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Delta.Accesses != 90 {
		t.Fatalf("round trip lost data: %+v", recs)
	}
}

func TestReadRecordsStrict(t *testing.T) {
	good, err := json.Marshal(Record{Workload: "w", Scheme: "tps", Every: 100, Refs: 100})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, input string
		wantLine    string
	}{
		{"unknown-field", string(good) + "\n" + `{"scheme":"tps","every":1,"bogus":1}` + "\n", "line 2"},
		{"missing-scheme", `{"every":100}` + "\n", "line 1"},
		{"missing-every", `{"scheme":"tps"}` + "\n", "line 1"},
		{"truncated", string(good) + "\n" + string(good[:20]) + "\n", "line 2"},
		{"trailing-object", string(good) + "\n" + string(good) + string(good) + "\n", "line 2"},
		{"trailing-garbage", string(good) + " garbage\n", "line 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadRecords(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Fatalf("error %q lacks %q", err, c.wantLine)
			}
		})
	}
	// Blank lines stay legal (trailing-newline convention).
	if _, err := ReadRecords(strings.NewReader(string(good) + "\n\n")); err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
}

package stream

import (
	"math/rand"
	"testing"
)

func TestSliceSourceReplay(t *testing.T) {
	us := []Update{{1, 2}, {3, -4}, {1, 1}}
	src := NewSliceSource(us)
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	var got []Update
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, u)
	}
	if len(got) != 3 || got[1] != us[1] {
		t.Fatalf("replay mismatch: %v", got)
	}
	// Exhausted source stays exhausted until Reset.
	if _, ok := src.Next(); ok {
		t.Error("exhausted source yielded an update")
	}
	src.Reset()
	if u, ok := src.Next(); !ok || u != us[0] {
		t.Error("Reset did not rewind")
	}
}

func TestUnitSource(t *testing.T) {
	src := NewUnitSource([]int{5, 5, 2})
	sum := map[int]float64{}
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if u.Delta != 1 {
			t.Fatalf("unit source delta %f", u.Delta)
		}
		sum[u.I] += u.Delta
	}
	if sum[5] != 2 || sum[2] != 1 {
		t.Fatalf("wrong accumulation %v", sum)
	}
	if src.Len() != 3 {
		t.Errorf("Len = %d", src.Len())
	}
}

func TestExactAccumulates(t *testing.T) {
	e := NewExact(10)
	e.Update(3, 5)
	e.Update(3, -2)
	if e.Query(3) != 3 {
		t.Errorf("Query(3) = %f", e.Query(3))
	}
	if e.Dim() != 10 || e.Words() != 10 {
		t.Error("Dim/Words wrong")
	}
	if e.Vector()[3] != 3 {
		t.Error("Vector not live")
	}
}

func TestDriveFeedsEverything(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	items := make([]int, 5000)
	for i := range items {
		items[i] = r.Intn(100)
	}
	src := NewUnitSource(items)
	e := NewExact(100)
	st := Drive(e, src)
	if st.Updates != 5000 {
		t.Fatalf("Updates = %d", st.Updates)
	}
	if st.NsPerUpdate <= 0 {
		t.Error("NsPerUpdate should be positive")
	}
	var total float64
	for i := 0; i < 100; i++ {
		total += e.Query(i)
	}
	if total != 5000 {
		t.Errorf("total mass %f, want 5000", total)
	}
	// Drive resets, so a second pass doubles everything.
	Drive(e, src)
	if e.Query(items[0]) < 2 {
		t.Error("second Drive should have replayed the stream")
	}
}

func TestMeasureQueries(t *testing.T) {
	e := NewExact(50)
	e.Update(7, 9)
	st := MeasureQueries(e, []int{7, 7, 7, 0})
	if st.Queries != 4 || st.NsPerQuery < 0 {
		t.Errorf("bad stats %+v", st)
	}
	empty := MeasureQueries(e, nil)
	if empty.Queries != 0 || empty.NsPerQuery != 0 {
		t.Errorf("empty query stats %+v", empty)
	}
}

// SliceSource replays a fixed update slice.
type SliceSource struct {
	updates []Update
	pos     int
}

// NewSliceSource wraps a pre-materialized stream.
func NewSliceSource(us []Update) *SliceSource { return &SliceSource{updates: us} }

// Next implements Source.
func (s *SliceSource) Next() (Update, bool) {
	if s.pos >= len(s.updates) {
		return Update{}, false
	}
	u := s.updates[s.pos]
	s.pos++
	return u, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the stream length.
func (s *SliceSource) Len() int { return len(s.updates) }

package geo

import (
	"testing"
	"testing/quick"
)

func TestNewGridTilingRejectsBadDimensions(t *testing.T) {
	tests := []struct {
		name string
		w, h int
	}{
		{name: "zero width", w: 0, h: 3},
		{name: "zero height", w: 3, h: 0},
		{name: "negative width", w: -1, h: 3},
		{name: "negative height", w: 3, h: -2},
		{name: "both zero", w: 0, h: 0},
		{name: "too many regions", w: 1 << 20, h: 1 << 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGridTiling(tt.w, tt.h); err == nil {
				t.Fatalf("NewGridTiling(%d, %d) succeeded, want error", tt.w, tt.h)
			}
		})
	}
}

func TestGridTilingSingleRegion(t *testing.T) {
	g := MustGridTiling(1, 1)
	if got := g.NumRegions(); got != 1 {
		t.Fatalf("NumRegions() = %d, want 1", got)
	}
	if nbrs := g.Neighbors(0); len(nbrs) != 0 {
		t.Fatalf("Neighbors(0) = %v, want empty", nbrs)
	}
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGridTilingNeighborCounts(t *testing.T) {
	g := MustGridTiling(4, 3)
	tests := []struct {
		name string
		x, y int
		want int
	}{
		{name: "corner", x: 0, y: 0, want: 3},
		{name: "other corner", x: 3, y: 2, want: 3},
		{name: "edge", x: 1, y: 0, want: 5},
		{name: "side edge", x: 0, y: 1, want: 5},
		{name: "interior", x: 1, y: 1, want: 8},
		{name: "interior2", x: 2, y: 1, want: 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u := g.RegionAt(tt.x, tt.y)
			if got := len(g.Neighbors(u)); got != tt.want {
				t.Errorf("len(Neighbors(%v)) = %d, want %d", u, got, tt.want)
			}
		})
	}
}

func TestGridTilingNeighborsSortedAndDiagonal(t *testing.T) {
	g := MustGridTiling(3, 3)
	center := g.RegionAt(1, 1)
	nbrs := g.Neighbors(center)
	want := []RegionID{0, 1, 2, 3, 5, 6, 7, 8}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors(center) = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(center) = %v, want %v", nbrs, want)
		}
	}
	// Diagonal squares sharing only a corner point are neighbors (§II-B).
	if !AreNeighbors(g, g.RegionAt(0, 0), g.RegionAt(1, 1)) {
		t.Error("diagonal squares should be neighbors")
	}
	if AreNeighbors(g, g.RegionAt(0, 0), g.RegionAt(2, 2)) {
		t.Error("non-touching squares should not be neighbors")
	}
}

func TestGridRegionAtAndCoordRoundTrip(t *testing.T) {
	g := MustGridTiling(5, 7)
	for y := 0; y < 7; y++ {
		for x := 0; x < 5; x++ {
			u := g.RegionAt(x, y)
			gx, gy := g.Coord(u)
			if gx != x || gy != y {
				t.Fatalf("Coord(RegionAt(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
	if got := g.RegionAt(-1, 0); got != NoRegion {
		t.Errorf("RegionAt(-1,0) = %v, want NoRegion", got)
	}
	if got := g.RegionAt(5, 0); got != NoRegion {
		t.Errorf("RegionAt(5,0) = %v, want NoRegion", got)
	}
	if got := g.RegionAt(0, 7); got != NoRegion {
		t.Errorf("RegionAt(0,7) = %v, want NoRegion", got)
	}
}

func TestGridTilingContains(t *testing.T) {
	g := MustGridTiling(2, 2)
	if !g.Contains(0) || !g.Contains(3) {
		t.Error("Contains should accept in-range regions")
	}
	if g.Contains(4) || g.Contains(NoRegion) {
		t.Error("Contains should reject out-of-range regions")
	}
	if g.Neighbors(NoRegion) != nil {
		t.Error("Neighbors(NoRegion) should be nil")
	}
}

func TestValidateAcceptsGrids(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{1, 1}, {1, 5}, {5, 1}, {4, 4}, {9, 2}} {
		g := MustGridTiling(dim.w, dim.h)
		if err := Validate(g); err != nil {
			t.Errorf("Validate(%dx%d grid): %v", dim.w, dim.h, err)
		}
	}
}

// brokenTiling violates neighbor symmetry, for Validate coverage.
type brokenTiling struct{ *GridTiling }

func (b brokenTiling) Neighbors(u RegionID) []RegionID {
	if u == 0 {
		return []RegionID{3}
	}
	return b.GridTiling.Neighbors(u)
}

func TestValidateRejectsAsymmetricNbr(t *testing.T) {
	b := brokenTiling{MustGridTiling(2, 2)}
	if err := Validate(b); err == nil {
		t.Fatal("Validate accepted asymmetric nbr relation")
	}
}

// disconnectedTiling has two regions and no edges.
type disconnectedTiling struct{}

func (disconnectedTiling) NumRegions() int               { return 2 }
func (disconnectedTiling) Neighbors(RegionID) []RegionID { return nil }
func (d disconnectedTiling) Contains(u RegionID) bool    { return u == 0 || u == 1 }

func TestValidateRejectsDisconnected(t *testing.T) {
	if err := Validate(disconnectedTiling{}); err == nil {
		t.Fatal("Validate accepted a disconnected tiling")
	}
}

// splitTiling is a 2×1 grid that lost its one edge but still answers for the
// grid's metric: connected by its own account, not by its neighbor lists.
type splitTiling struct{ *GridTiling }

func (splitTiling) Neighbors(RegionID) []RegionID { return nil }

func TestValidateChecksConnectivityOnTheNeighborLists(t *testing.T) {
	s := splitTiling{MustGridTiling(2, 1)}
	if NewGraph(s).Distance(0, 1) != 1 {
		t.Fatal("the fixture's metric should claim the regions adjacent")
	}
	if err := Validate(s); err == nil {
		t.Fatal("Validate took the tiling's metric for its word")
	}
}

func TestChebyshevDistanceMatchesGraphDistance(t *testing.T) {
	g := MustGridTiling(6, 5)
	gr := NewGraph(g)
	// On an 8-neighbor grid, hop distance equals Chebyshev distance.
	cfg := &quick.Config{MaxCount: 200}
	f := func(a, b uint16) bool {
		u := RegionID(int(a) % g.NumRegions())
		v := RegionID(int(b) % g.NumRegions())
		return gr.Distance(u, v) == g.ChebyshevDistance(u, v)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRegionIDString(t *testing.T) {
	if got := RegionID(7).String(); got != "r7" {
		t.Errorf("RegionID(7).String() = %q, want \"r7\"", got)
	}
	if got := NoRegion.String(); got != "r⊥" {
		t.Errorf("NoRegion.String() = %q, want \"r⊥\"", got)
	}
	if NoRegion.Valid() || !RegionID(0).Valid() {
		t.Error("Valid() misclassifies regions")
	}
}

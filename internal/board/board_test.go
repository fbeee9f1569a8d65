package board

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sprout/internal/geom"
)

func testStackup() Stackup {
	return Stackup{Layers: []Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2-GND", CopperUM: 35, DielectricBelowUM: 100, IsPlane: true},
		{Name: "L3", CopperUM: 35, DielectricBelowUM: 100},
	}}
}

func testRules() DesignRules {
	return DesignRules{Clearance: 2, ViaCost: 5}
}

func newTestBoard(t *testing.T) *Board {
	t.Helper()
	b, err := New("test", geom.R(0, 0, 1000, 1000), testStackup(), testRules())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", geom.Rect{}, testStackup(), testRules()); err == nil {
		t.Fatal("empty outline must error")
	}
	if _, err := New("x", geom.R(0, 0, 10, 10), Stackup{}, testRules()); err == nil {
		t.Fatal("empty stackup must error")
	}
	bad := testRules()
	bad.Clearance = -1
	if _, err := New("x", geom.R(0, 0, 10, 10), testStackup(), bad); err == nil {
		t.Fatal("bad rules must error")
	}
}

func TestSheetResistance(t *testing.T) {
	l := Layer{CopperUM: 35}
	want := CopperResistivityOhmUM / 35
	if got := l.SheetResistance(); got != want {
		t.Fatalf("sheet resistance = %g, want %g", got, want)
	}
	if got := (Layer{}).SheetResistance(); got != 0 {
		t.Fatalf("zero thickness sheet resistance = %g, want 0", got)
	}
}

func TestDistanceToPlane(t *testing.T) {
	s := testStackup()
	// L1 -> plane at L2: one dielectric below L1 = 100.
	if got := s.DistanceToPlaneUM(1); got != 100 {
		t.Fatalf("L1 distance = %g, want 100", got)
	}
	// L3 -> plane at L2 above: dielectric below L2 = 100.
	if got := s.DistanceToPlaneUM(3); got != 100 {
		t.Fatalf("L3 distance = %g, want 100", got)
	}
	// No plane at all: falls back to total height.
	noPlane := Stackup{Layers: []Layer{
		{CopperUM: 35, DielectricBelowUM: 60},
		{CopperUM: 35, DielectricBelowUM: 40},
	}}
	if got := noPlane.DistanceToPlaneUM(1); got != 100 {
		t.Fatalf("no-plane distance = %g, want 100", got)
	}
}

func TestAddNetAndGroup(t *testing.T) {
	b := newTestBoard(t)
	vdd := b.AddNet("VDD1", 5, 1)
	if vdd != 0 {
		t.Fatalf("first net id = %d, want 0", vdd)
	}
	g := TerminalGroup{
		Name: "pmic", Kind: KindPMIC, Net: vdd, Layer: 1,
		Pads:    []geom.Region{geom.RegionFromRect(geom.R(10, 10, 30, 30))},
		Current: 5,
	}
	if err := b.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	got := b.GroupsOn(vdd, 1)
	if len(got) != 1 || got[0].Name != "pmic" {
		t.Fatalf("GroupsOn = %+v", got)
	}
	if len(b.GroupsOn(vdd, 3)) != 0 {
		t.Fatal("no groups on layer 3")
	}
}

func TestAddGroupValidation(t *testing.T) {
	b := newTestBoard(t)
	vdd := b.AddNet("VDD", 1, 1)
	pad := geom.RegionFromRect(geom.R(0, 0, 10, 10))
	cases := []TerminalGroup{
		{Name: "badnet", Net: 9, Layer: 1, Pads: []geom.Region{pad}},
		{Name: "badlayer", Net: vdd, Layer: 0, Pads: []geom.Region{pad}},
		{Name: "nopads", Net: vdd, Layer: 1},
		{Name: "emptypad", Net: vdd, Layer: 1, Pads: []geom.Region{geom.EmptyRegion()}},
		{Name: "outside", Net: vdd, Layer: 1, Pads: []geom.Region{geom.RegionFromRect(geom.R(990, 990, 1010, 1010))}},
		{Name: "negcurrent", Net: vdd, Layer: 1, Pads: []geom.Region{pad}, Current: -1},
	}
	for _, g := range cases {
		if err := b.AddGroup(g); err == nil {
			t.Errorf("group %q must be rejected", g.Name)
		}
	}
}

func TestAvailableSpaceSubtractsBufferedOtherNets(t *testing.T) {
	b := newTestBoard(t)
	vdd := b.AddNet("VDD", 1, 1)
	vss := b.AddNet("VSS", 1, 1)
	pad := geom.RegionFromRect(geom.R(100, 100, 120, 120))
	if err := b.AddGroup(TerminalGroup{Name: "vsspad", Kind: KindVia, Net: vss, Layer: 1, Pads: []geom.Region{pad}, Current: 1}); err != nil {
		t.Fatal(err)
	}

	avail := b.AvailableSpace(vdd, 1)
	// Pad plus clearance-2 buffer removed.
	if avail.OverlapsRect(geom.R(110, 110, 111, 111)) {
		t.Fatal("other-net pad must be removed")
	}
	if avail.OverlapsRect(geom.R(99, 110, 100, 111)) {
		t.Fatal("buffer around other-net pad must be removed")
	}
	if !avail.OverlapsRect(geom.R(97, 110, 98, 111)) {
		t.Fatal("space beyond the buffer must remain")
	}
	// VSS's own available space keeps its own pad.
	availVss := b.AvailableSpace(vss, 1)
	if !availVss.OverlapsRect(geom.R(110, 110, 111, 111)) {
		t.Fatal("own pad must remain available")
	}
	// Other layers unaffected.
	if !b.AvailableSpace(vdd, 3).OverlapsRect(geom.R(110, 110, 111, 111)) {
		t.Fatal("layer 3 must be unaffected by a layer 1 pad")
	}
}

func TestAvailableSpaceKeepout(t *testing.T) {
	b := newTestBoard(t)
	vdd := b.AddNet("VDD", 1, 1)
	block := geom.RegionFromRect(geom.R(500, 0, 600, 1000))
	if err := b.AddObstacle(NetNone, 1, block); err != nil {
		t.Fatal(err)
	}
	avail := b.AvailableSpace(vdd, 1)
	if avail.OverlapsRect(geom.R(550, 500, 551, 501)) {
		t.Fatal("keepout must block every net")
	}
	// Keepout splits the layer into two components.
	if n := len(avail.Components()); n != 2 {
		t.Fatalf("keepout should split the space, got %d components", n)
	}
}

func TestAvailableSpaceOwnObstacleKept(t *testing.T) {
	b := newTestBoard(t)
	vdd := b.AddNet("VDD", 1, 1)
	own := geom.RegionFromRect(geom.R(100, 100, 200, 200))
	if err := b.AddObstacle(vdd, 1, own); err != nil {
		t.Fatal(err)
	}
	if !b.AvailableSpace(vdd, 1).OverlapsRect(geom.R(150, 150, 151, 151)) {
		t.Fatal("own-net obstacle must stay routable for the owner")
	}
	vss := b.AddNet("VSS", 1, 1)
	if b.AvailableSpace(vss, 1).OverlapsRect(geom.R(150, 150, 151, 151)) {
		t.Fatal("own-net obstacle must block other nets")
	}
}

// availableSpaceSequential is the original Eq. 1 loop: the outline minus
// each other-net pad buffer and each obstacle buffer, one Subtract at a
// time. AvailableSpace must return the identical region.
func availableSpaceSequential(b *Board, net NetID, layer int) geom.Region {
	avail := geom.RegionFromRect(b.Outline)
	c := b.Rules.Clearance
	for _, g := range b.Groups {
		if g.Layer != layer || g.Net == net {
			continue
		}
		for _, p := range g.Pads {
			avail = avail.Subtract(p.Bloat(c))
		}
	}
	for _, o := range b.Obstacle {
		if o.Layer != layer || (o.Net == net && o.Net != NetNone) {
			continue
		}
		avail = avail.Subtract(o.Shape.Bloat(c))
	}
	return avail
}

// TestAvailableSpaceMatchesSequentialSubtract compares the one-pass
// AvailableSpace with the sequential Subtract loop on seeded random
// boards: several nets on two routable layers, multi-pad groups, NetNone
// keepouts, same-net obstacles, obstacles reaching past the outline, and
// clearances including 0.
func TestAvailableSpaceMatchesSequentialSubtract(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	shape := func(maxSide int) geom.Region {
		var rects []geom.Rect
		for k := 1 + r.Intn(3); k > 0; k-- {
			x, y := int64(r.Intn(220)-10), int64(r.Intn(220)-10)
			rects = append(rects, geom.R(x, y, x+int64(1+r.Intn(maxSide)), y+int64(1+r.Intn(maxSide))))
		}
		return geom.RegionFromRects(rects)
	}
	for i := 0; i < 400; i++ {
		rules := DesignRules{Clearance: int64(r.Intn(5))}
		b, err := New("random", geom.R(0, 0, 200, 200), testStackup(), rules)
		if err != nil {
			t.Fatal(err)
		}
		nets := 1 + r.Intn(4)
		for n := 0; n < nets; n++ {
			b.AddNet(fmt.Sprintf("N%d", n), 1, 1)
		}
		for k := r.Intn(12); k > 0; k-- {
			var pads []geom.Region
			for p := 1 + r.Intn(4); p > 0; p-- {
				if pad := shape(12).Intersect(geom.RegionFromRect(b.Outline)); !pad.Empty() {
					pads = append(pads, pad)
				}
			}
			if len(pads) == 0 {
				continue
			}
			g := TerminalGroup{Name: fmt.Sprintf("g%d", k), Net: NetID(r.Intn(nets)), Layer: 1 + 2*r.Intn(2), Pads: pads}
			if err := b.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		for k := r.Intn(8); k > 0; k-- {
			net := NetNone
			if r.Intn(2) == 0 {
				net = NetID(r.Intn(nets))
			}
			if err := b.AddObstacle(net, 1+2*r.Intn(2), shape(40)); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < nets; n++ {
			for _, layer := range []int{1, 3} {
				got := b.AvailableSpace(NetID(n), layer)
				if want := availableSpaceSequential(b, NetID(n), layer); !reflect.DeepEqual(got, want) {
					t.Fatalf("board %d net %d layer %d:\n got %v\nwant %v", i, n, layer, got, want)
				}
			}
		}
	}
}

func TestAddObstacleValidation(t *testing.T) {
	b := newTestBoard(t)
	if err := b.AddObstacle(5, 1, geom.RegionFromRect(geom.R(0, 0, 1, 1))); err == nil {
		t.Fatal("unknown net must error")
	}
	if err := b.AddObstacle(NetNone, 9, geom.RegionFromRect(geom.R(0, 0, 1, 1))); err == nil {
		t.Fatal("bad layer must error")
	}
	if err := b.AddObstacle(NetNone, 1, geom.EmptyRegion()); err == nil {
		t.Fatal("empty shape must error")
	}
}

func TestRoutableLayers(t *testing.T) {
	b := newTestBoard(t)
	got := b.RoutableLayers()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("routable layers = %v, want [1 3]", got)
	}
}

func TestTerminalKindString(t *testing.T) {
	if KindPMIC.String() != "PMIC" || KindBGA.String() != "BGA" ||
		KindDecap.String() != "Decap" || KindVia.String() != "Via" {
		t.Fatal("kind strings")
	}
	if TerminalKind(42).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestGroupShapeUnion(t *testing.T) {
	g := TerminalGroup{Pads: []geom.Region{
		geom.RegionFromRect(geom.R(0, 0, 2, 2)),
		geom.RegionFromRect(geom.R(4, 0, 6, 2)),
	}}
	if got := g.Shape().Area(); got != 8 {
		t.Fatalf("group shape area = %d, want 8", got)
	}
}

func TestNetNamesAndLookup(t *testing.T) {
	b := newTestBoard(t)
	b.AddNet("VDD1", 1, 1)
	b.AddNet("VDD2", 2, 1)
	if _, err := b.Net(NetID(7)); err == nil {
		t.Fatal("unknown net lookup must error")
	}
	n, err := b.Net(NetID(1))
	if err != nil || n.Name != "VDD2" || n.Current != 2 {
		t.Fatalf("net lookup = %+v err=%v", n, err)
	}
}

func TestLayerPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testStackup().Layer(0)
}

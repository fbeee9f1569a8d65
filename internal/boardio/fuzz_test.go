package boardio

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode hardens the JSON board parser: arbitrary inputs must either
// fail cleanly or decode to a setup that Encode writes back losslessly.
// The re-decoded document must give the same board, routing layer,
// budgets, router config and available space of every net on every layer.
func FuzzDecode(f *testing.F) {
	f.Add(minimalDoc)
	f.Add(`{}`)
	f.Add(`{"name":"x","outline":[0,0,1,1],"stackup":[{"name":"L1","copper_um":35,"dielectric_below_um":0}],"rules":{"clearance":0,"tile_dx":1,"tile_dy":1,"via_cost":0},"nets":[],"groups":[],"routing_layer":1}`)
	f.Add(strings.Replace(minimalDoc, `"rect": [5, 40, 15, 60]`, `"poly": [[0,0],[9,0],[9,9],[0,9]]`, 1))
	f.Add(strings.Replace(minimalDoc, `"routing_layer": 1`, `"routing_layer": -2`, 1))
	f.Add(hugePadDoc)
	f.Add(bigOutlineDoc)
	example, err := os.ReadFile("testdata/example_board.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	f.Fuzz(func(t *testing.T, doc string) {
		dec, err := Decode(strings.NewReader(doc))
		if err != nil {
			return // clean rejection is fine
		}
		var buf bytes.Buffer
		if err := Encode(&buf, dec); err != nil {
			t.Fatalf("accepted board failed to encode: %v", err)
		}
		dec2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded board failed to decode: %v", err)
		}
		b, b2 := dec.Board, dec2.Board
		if b2.Name != b.Name || b2.Rules != b.Rules ||
			len(b2.Nets) != len(b.Nets) || len(b2.Groups) != len(b.Groups) {
			t.Fatal("round trip changed the board")
		}
		if dec2.Config != dec.Config || dec2.RoutingLayer != dec.RoutingLayer ||
			!reflect.DeepEqual(dec2.Budgets, dec.Budgets) {
			t.Fatalf("round trip changed the setup: config %+v -> %+v, layer %d -> %d, budgets %v -> %v",
				dec.Config, dec2.Config, dec.RoutingLayer, dec2.RoutingLayer, dec.Budgets, dec2.Budgets)
		}
		for _, net := range b.Nets {
			for layer := 1; layer <= b.Stackup.NumLayers(); layer++ {
				if !b.AvailableSpace(net.ID, layer).Equal(b2.AvailableSpace(net.ID, layer)) {
					t.Fatalf("net %s: available space on layer %d changed", net.Name, layer)
				}
			}
		}
	})
}

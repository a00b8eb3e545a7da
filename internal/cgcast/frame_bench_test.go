package cgcast

import (
	"testing"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/geocast"
	"vinestalk/internal/hier"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/vbcast"
	"vinestalk/internal/vsa"
)

// BenchmarkFrameDeliver prices one cluster message on the batched path:
// frames of 32 messages sent at one instant between neighbouring level-1
// clusters, each frame enqueued, flushed, routed by geocast, held at the
// destination head and delivered into a handler that does nothing.
//
// One op is one message, so ns/op is ns/message and allocs/op is
// allocations per message.
func BenchmarkFrameDeliver(b *testing.B) {
	const perFrame = 32
	k := sim.New(1)
	tiling := geo.MustGridTiling(8, 8)
	h := hier.MustGrid(tiling, 2)
	layer := vsa.NewLayer(k, tiling)
	for u := 0; u < tiling.NumRegions(); u++ {
		layer.RegisterVSA(geo.RegionID(u), nopVSA{})
		if err := layer.AddClient(vsa.ClientID(u), geo.RegionID(u), &recClient{}); err != nil {
			b.Fatal(err)
		}
	}
	layer.StartAllAlive()
	ledger := metrics.NewLedger()
	vb := vbcast.New(k, layer, 10*time.Millisecond, 5*time.Millisecond, ledger)
	gc := geocast.New(k, layer, h.Graph(), vb, ledger)
	svc, err := New(h, layer, gc, vb, hier.MeasureGeometry(h), ledger, WithBatching())
	if err != nil {
		b.Fatal(err)
	}
	from := h.Cluster(tiling.RegionAt(0, 0), 1)
	to := h.Nbrs(from)[0]
	send := func() {
		if err := svc.ClusterToCluster(from, to, "grow", nil); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < perFrame; i++ { // warm-up: free lists, kind table, routing
		send()
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		if (i+1)%perFrame == 0 {
			k.Run()
		}
	}
	k.Run()
	b.StopTimer()
	if got, want := ledger.Delivered("proto/grow"), int64(perFrame+b.N); got != want {
		b.Fatalf("%d of %d messages delivered", got, want)
	}
}

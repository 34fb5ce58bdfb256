package netstack

import (
	"testing"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/mac"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

const (
	portTest  Port = 1
	portFlood Port = 2
)

func newNet(seed int64) (*sim.Engine, *Network) {
	eng := sim.NewEngine(seed)
	nw := NewNetwork(eng, geom.Square(450), radio.DefaultParams(), mac.DefaultConfig(3*time.Second))
	return eng, nw
}

func TestSendAndPortDemux(t *testing.T) {
	eng, nw := newNet(1)
	a := nw.AddNode(0, geom.Pt(0, 0), mac.RoleAlwaysOn)
	b := nw.AddNode(1, geom.Pt(50, 0), mac.RoleAlwaysOn)

	var gotBody any
	var gotSrc radio.NodeID = -2
	var otherPort bool
	b.Handle(portTest, func(src radio.NodeID, body any) { gotSrc, gotBody = src, body })
	b.Handle(portTest+1, func(radio.NodeID, any) { otherPort = true })
	nw.Start()

	var ok bool
	eng.Schedule(0, func() { a.Send(1, portTest, "payload", 40, func(res bool) { ok = res }) })
	eng.Run(time.Second)

	if gotBody != "payload" || gotSrc != 0 || !ok {
		t.Errorf("delivery: body=%v src=%v ok=%v", gotBody, gotSrc, ok)
	}
	if otherPort {
		t.Error("message leaked to wrong port")
	}
}

func TestBroadcastDemux(t *testing.T) {
	eng, nw := newNet(1)
	a := nw.AddNode(0, geom.Pt(100, 100), mac.RoleAlwaysOn)
	b := nw.AddNode(1, geom.Pt(150, 100), mac.RoleAlwaysOn)
	count := 0
	b.Handle(portTest, func(radio.NodeID, any) { count++ })
	nw.Start()
	eng.Schedule(0, func() { a.Broadcast(portTest, "hi", 30) })
	eng.Run(time.Second)
	if count != 1 {
		t.Errorf("broadcast delivered %d times, want 1", count)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	_, nw := newNet(1)
	a := nw.AddNode(0, geom.Pt(0, 0), mac.RoleAlwaysOn)
	a.Handle(portTest, func(radio.NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Handle should panic")
		}
	}()
	a.Handle(portTest, func(radio.NodeID, any) {})
}

func TestFloodReachesScopeOverMultipleHops(t *testing.T) {
	eng, nw := newNet(1)
	// A chain of always-on nodes 80 m apart; range is 105 m so floods must
	// relay hop by hop.
	var nodes []*Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, nw.AddNode(radio.NodeID(i), geom.Pt(float64(i)*80, 100), mac.RoleAlwaysOn))
	}
	got := make(map[radio.NodeID]int)
	hops := make(map[radio.NodeID]int)
	for _, n := range nodes {
		n := n
		n.HandleFlood(portFlood, func(relay, origin radio.NodeID, body any, h int) {
			got[n.ID()]++
			hops[n.ID()] = h
			if origin != 0 {
				t.Errorf("origin = %v, want 0", origin)
			}
			if body != "setup" {
				t.Errorf("body = %v", body)
			}
		})
	}
	nw.Start()
	scope := geom.Circle{C: geom.Pt(160, 100), R: 400}
	eng.Schedule(0, func() { nodes[0].StartFlood(scope, portFlood, "setup", 50) })
	eng.Run(time.Second)

	for i := 0; i < 5; i++ {
		if got[radio.NodeID(i)] != 1 {
			t.Errorf("node %d delivered %d times, want exactly 1 (dedup)", i, got[radio.NodeID(i)])
		}
	}
	if hops[0] != 0 {
		t.Errorf("origin hops = %d, want 0", hops[0])
	}
	if hops[4] < 2 {
		t.Errorf("far node hops = %d, want >= 2", hops[4])
	}
}

func TestFloodScopeLimitsRelaying(t *testing.T) {
	eng, nw := newNet(1)
	// Node 2 is outside the scope: it may hear the flood from node 1 but
	// must not relay it to node 3.
	n0 := nw.AddNode(0, geom.Pt(0, 100), mac.RoleAlwaysOn)
	nw.AddNode(1, geom.Pt(80, 100), mac.RoleAlwaysOn)
	nw.AddNode(2, geom.Pt(160, 100), mac.RoleAlwaysOn)
	n3 := nw.AddNode(3, geom.Pt(240, 100), mac.RoleAlwaysOn)
	reached3 := false
	n3.HandleFlood(portFlood, func(_, _ radio.NodeID, _ any, _ int) { reached3 = true })
	nw.Start()

	scope := geom.Circle{C: geom.Pt(0, 100), R: 100} // only nodes 0 and 1 inside
	eng.Schedule(0, func() { n0.StartFlood(scope, portFlood, "x", 50) })
	eng.Run(time.Second)
	if reached3 {
		t.Error("flood escaped its scope through an out-of-scope relay")
	}
}

func TestFloodNotRelayedByDutyCycledNodes(t *testing.T) {
	eng, nw := newNet(1)
	n0 := nw.AddNode(0, geom.Pt(0, 100), mac.RoleAlwaysOn)
	// Node 1 is duty-cycled: awake at t=0 (active window) so it hears the
	// flood, but as a leaf it must not relay.
	nw.AddNode(1, geom.Pt(80, 100), mac.RoleDutyCycled)
	n2 := nw.AddNode(2, geom.Pt(160, 100), mac.RoleAlwaysOn)
	reached2 := false
	n2.HandleFlood(portFlood, func(_, _ radio.NodeID, _ any, _ int) { reached2 = true })
	nw.Start()

	scope := geom.Circle{C: geom.Pt(80, 100), R: 300}
	eng.Schedule(time.Millisecond, func() { n0.StartFlood(scope, portFlood, "x", 50) })
	eng.Run(time.Second)
	if reached2 {
		t.Error("duty-cycled node relayed a flood")
	}
}

func TestGeoSendDeliversWithinRadius(t *testing.T) {
	eng, nw := newNet(1)
	var nodes []*Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, nw.AddNode(radio.NodeID(i), geom.Pt(float64(i)*80, 100), mac.RoleAlwaysOn))
	}
	var deliveredAt radio.NodeID = -1
	for _, n := range nodes {
		n := n
		n.Handle(portTest, func(src radio.NodeID, body any) {
			deliveredAt = n.ID()
			if body != "prefetch" {
				t.Errorf("body = %v", body)
			}
		})
	}
	nw.Start()

	target := geom.Pt(400, 100) // node 5 sits exactly there
	eng.Schedule(0, func() { nodes[0].GeoSend(target, 40, portTest, "prefetch", 60) })
	eng.Run(time.Second)

	if deliveredAt != 5 {
		t.Errorf("anycast delivered at node %d, want 5", deliveredAt)
	}
	if nw.Stats().GeoDelivered != 1 {
		t.Errorf("stats = %+v", nw.Stats())
	}
}

func TestGeoSendLocalDelivery(t *testing.T) {
	eng, nw := newNet(1)
	a := nw.AddNode(0, geom.Pt(100, 100), mac.RoleAlwaysOn)
	hit := false
	a.Handle(portTest, func(radio.NodeID, any) { hit = true })
	nw.Start()
	eng.Schedule(0, func() { a.GeoSend(geom.Pt(110, 100), 50, portTest, "x", 10) })
	eng.Run(time.Second)
	if !hit {
		t.Error("GeoSend within radius of self should deliver locally")
	}
	if nw.Stats().GeoSent != 1 || nw.Stats().GeoDelivered != 1 {
		t.Errorf("stats = %+v", nw.Stats())
	}
}

func TestGeoSendBestEffortAtVoid(t *testing.T) {
	eng, nw := newNet(1)
	// Two nodes near the origin; the target is far away with no relay
	// toward it. The walk should stop at the node closest to the target.
	a := nw.AddNode(0, geom.Pt(0, 100), mac.RoleAlwaysOn)
	b := nw.AddNode(1, geom.Pt(80, 100), mac.RoleAlwaysOn)
	var deliveredAt radio.NodeID = -1
	for _, n := range []*Node{a, b} {
		n := n
		n.Handle(portTest, func(radio.NodeID, any) { deliveredAt = n.ID() })
	}
	nw.Start()
	eng.Schedule(0, func() { a.GeoSend(geom.Pt(440, 100), 10, portTest, "x", 10) })
	eng.Run(time.Second)
	if deliveredAt != 1 {
		t.Errorf("best-effort delivery at node %d, want 1 (closest)", deliveredAt)
	}
	if nw.Stats().GeoBestEffort != 1 {
		t.Errorf("stats = %+v", nw.Stats())
	}
}

func TestGeoSendReroutesAroundDeadLink(t *testing.T) {
	eng, nw := newNet(1)
	a := nw.AddNode(0, geom.Pt(0, 100), mac.RoleAlwaysOn)
	// b is the greedy choice; c is the detour. After Start, b is moved out
	// of range so the a->b link fails and routing must fall back to c.
	b := nw.AddNode(1, geom.Pt(90, 100), mac.RoleAlwaysOn)
	c := nw.AddNode(2, geom.Pt(70, 140), mac.RoleAlwaysOn)
	d := nw.AddNode(3, geom.Pt(150, 140), mac.RoleAlwaysOn)
	var deliveredAt radio.NodeID = -1
	for _, n := range []*Node{a, b, c, d} {
		n := n
		n.Handle(portTest, func(radio.NodeID, any) { deliveredAt = n.ID() })
	}
	nw.Start()
	eng.Schedule(0, func() {
		b.Move(geom.Pt(400, 400)) // stale neighbour table entry
		a.GeoSend(geom.Pt(150, 140), 20, portTest, "x", 10)
	})
	eng.Run(2 * time.Second)
	if deliveredAt != 3 {
		t.Errorf("delivered at node %d, want 3 via detour", deliveredAt)
	}
	if nw.Stats().GeoLinkFailures == 0 {
		t.Error("expected a recorded link failure")
	}
}

func TestNeighborsSortedAndFiltered(t *testing.T) {
	_, nw := newNet(1)
	nw.AddNode(3, geom.Pt(100, 100), mac.RoleAlwaysOn)
	nw.AddNode(1, geom.Pt(150, 100), mac.RoleAlwaysOn)
	nw.AddNode(2, geom.Pt(100, 160), mac.RoleDutyCycled)
	nw.AddProxy(99, geom.Pt(110, 100))
	nw.AddNode(4, geom.Pt(400, 400), mac.RoleAlwaysOn) // out of range
	nw.Start()

	got := nw.Neighbors(3)
	want := []radio.NodeID{1, 2}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(3) = %v, want %v (sorted, no proxy, no far node)", got, want)
	}
}

func TestAddAfterStartPanics(t *testing.T) {
	_, nw := newNet(1)
	nw.AddNode(0, geom.Pt(0, 0), mac.RoleAlwaysOn)
	nw.Start()
	defer func() {
		if recover() == nil {
			t.Error("AddNode after Start should panic")
		}
	}()
	nw.AddNode(1, geom.Pt(1, 1), mac.RoleAlwaysOn)
}

func TestDuplicateNodePanics(t *testing.T) {
	_, nw := newNet(1)
	nw.AddNode(0, geom.Pt(0, 0), mac.RoleAlwaysOn)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode should panic")
		}
	}()
	nw.AddNode(0, geom.Pt(1, 1), mac.RoleAlwaysOn)
}

func TestProxyMoveTracksRange(t *testing.T) {
	eng, nw := newNet(1)
	nw.AddNode(0, geom.Pt(0, 0), mac.RoleAlwaysOn)
	p := nw.AddProxy(99, geom.Pt(400, 400))
	nw.Start()
	if nw.InRange(0, 99) {
		t.Error("proxy should start out of range")
	}
	eng.Schedule(0, func() { p.Move(geom.Pt(50, 0)) })
	eng.Run(time.Millisecond)
	if !nw.InRange(0, 99) {
		t.Error("moved proxy should be in range")
	}
}

func TestNodeIDsOrder(t *testing.T) {
	_, nw := newNet(1)
	nw.AddNode(5, geom.Pt(0, 0), mac.RoleAlwaysOn)
	nw.AddNode(2, geom.Pt(1, 1), mac.RoleAlwaysOn)
	ids := nw.NodeIDs()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 2 {
		t.Errorf("NodeIDs = %v, want creation order [5 2]", ids)
	}
}

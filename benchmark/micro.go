package main

import (
	"fmt"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/nethost"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// echoApp is the smallest nethost.App: region 1 answers every "ping" frame
// with a "pong" to region 0, whose arrival ends one round trip. It prices the
// networked host alone — ledger charge, frame codec, transport, hold timer,
// mailbox, dispatch — with no tracker on top.
type echoApp struct {
	pong chan struct{}
}

type idleAutomaton struct{}

func (idleAutomaton) Deliver(geo.RegionID, int, any)                {}
func (idleAutomaton) TimerFire(geo.RegionID, vsa.TimerID, sim.Time) {}
func (idleAutomaton) ResetRegion(geo.RegionID)                      {}
func (idleAutomaton) EncodeRegion(geo.RegionID) []byte              { return nil }
func (idleAutomaton) DecodeRegion(geo.RegionID, []byte) error       { return nil }

func (a *echoApp) NewAutomaton(geo.RegionID, vsa.Host) vsa.Automaton { return idleAutomaton{} }
func (a *echoApp) OnStart(*nethost.Node)                             {}
func (a *echoApp) OnIdle(*nethost.Node)                              {}
func (a *echoApp) HandleEffect(*nethost.Node, any)                   {}
func (a *echoApp) DeliverFrame(n *nethost.Node, kind string, payload []byte) {
	if kind == "ping" {
		n.Send(0, n.Now(), "pong", 1, payload)
		return
	}
	a.pong <- struct{}{}
}

// frameRTT measures the median round trip of an already-due frame from
// region 0 to region 1 and back over the given transport (nil = in-process).
func frameRTT(tr nethost.Transport, rounds int) (float64, error) {
	app := &echoApp{pong: make(chan struct{}, 1)}
	svc, err := nethost.New(app, nethost.Config{NumRegions: 2, Transport: tr})
	if err != nil {
		return 0, err
	}
	if err := svc.Start(); err != nil {
		return 0, err
	}
	defer svc.Stop()
	payload := make([]byte, 64)
	samples := make([]float64, 0, rounds)
	for i := 0; i < rounds+50; i++ {
		t := time.Now()
		if err := svc.Inject(0, func(n *nethost.Node) { n.Send(1, n.Now(), "ping", 1, payload) }); err != nil {
			return 0, err
		}
		select {
		case <-app.pong:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("nethost echo: no pong within 5 s")
		}
		if i >= 50 { // the first trips dial and warm the path
			samples = append(samples, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return summarize(samples, 99).P50, nil
}

// nethostMicro fills the networked host's stand-alone per-layer metrics.
func nethostMicro(res *result) error {
	rtt, err := frameRTT(nil, 2000)
	if err != nil {
		return err
	}
	res.Layer["nethost.frame_rtt_us_p50"] = rtt
	tcp, err := nethost.NewTCPTransport("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	if rtt, err = frameRTT(tcp, 2000); err != nil {
		return err
	}
	res.Layer["nethost.frame_rtt_tcp_us_p50"] = rtt
	return nil
}

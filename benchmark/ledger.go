package main

import (
	"errors"
	"fmt"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/bas"
	"mkbas/internal/building"
	"mkbas/internal/core"
	"mkbas/internal/httpmini"
	"mkbas/internal/lab"
	"mkbas/internal/linuxsim"
	"mkbas/internal/machine"
	"mkbas/internal/minix"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/sel4"
	"mkbas/internal/tenantapi"
	"mkbas/internal/vnet"
)

// The layer ledger: each layer's public entry point, called directly by the
// benchmark on its allowed and its denied branch, timed from outside. Every
// entry is the median of ledgerBatches batches; ns/op and allocs/op are per
// operation. The ledger does not depend on the workload, so every traced run
// reports it; its costs multiplied by the workload's layer counts give
// ledger.explained_share.

const ledgerBatches = 5

// ledger collects each row's per-batch samples.
type ledger struct {
	rows metricSet
}

// op times fn over n calls per batch, recording "<name>_ns" and, when
// withAllocs, "<name>_allocs".
func (l *ledger) op(name string, n int, withAllocs bool, fn func()) {
	for i := 0; i < n/10+1; i++ {
		fn() // warm up
	}
	for b := 0; b < ledgerBatches; b++ {
		a0 := heapAllocs()
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ns := float64(time.Since(start)) / float64(n)
		allocs := float64(heapAllocs()-a0) / float64(n)
		l.rows.add(name+"_ns", "ns", ns)
		if withAllocs {
			l.rows.add(name+"_allocs", "allocs/op", allocs)
		}
	}
}

// board times a simulated board whose processes advance *done once per
// operation, recording "<name>_ns" (and "<name>_allocs") per operation. It
// returns the virtual traps and context switches per operation.
func (l *ledger) board(name string, ops int64, withAllocs bool, m *machine.Machine, done *int64) (traps, switches float64) {
	defer m.Shutdown()
	for *done < ops/10+1 {
		m.Run(time.Millisecond) // warm up: processes started, rings grown
	}
	for b := 0; b < ledgerBatches; b++ {
		s0 := m.Engine().Stats()
		start, target := *done, *done+ops
		a0 := heapAllocs()
		t := time.Now()
		for *done < target {
			// Small virtual slices keep the overshoot past target small.
			m.Run(50 * time.Microsecond)
		}
		elapsed := float64(time.Since(t))
		allocs := float64(heapAllocs() - a0)
		n := float64(*done - start)
		s1 := m.Engine().Stats()
		l.rows.add(name+"_ns", "ns", elapsed/n)
		if withAllocs {
			l.rows.add(name+"_allocs", "allocs/op", allocs/n)
		}
		traps = float64(s1.Traps-s0.Traps) / n
		switches = float64(s1.ContextSwitches-s0.ContextSwitches) / n
	}
	return traps, switches
}

func (l *ledger) median(name string) float64 { return quantile(l.rows[name].samples, 0.5) }

// runLedger times every ledger row.
func runLedger() (metricSet, error) {
	l := &ledger{rows: metricSet{}}

	// machine: one trap with no context switch (an in-kernel device read on
	// Linux) is the engine's dispatch cost; a MINIX SendRec round trip adds
	// the context switches, whose cost is what remains per switch.
	m, done := linuxDeviceRead()
	l.board("machine.dispatch", 200_000, false, m, done)
	m, done, err := minixEcho()
	if err != nil {
		return nil, err
	}
	traps, switches := l.board("minix.sendrec", 50_000, false, m, done)
	dispatch := l.median("machine.dispatch_ns")
	for _, rt := range l.rows["minix.sendrec_ns"].samples {
		l.rows.add("machine.switch_ns", "ns", (rt-traps*dispatch)/switches)
	}
	m, done, err = sel4Call()
	if err != nil {
		return nil, err
	}
	l.board("sel4.call", 50_000, false, m, done)
	m, done = linuxMQ()
	l.board("linuxsim.mq_roundtrip", 50_000, false, m, done)

	// Denied branches: each operation is refused by the platform's
	// mediation layer and emits a security event.
	m, done, err = minixDeniedSend()
	if err != nil {
		return nil, err
	}
	l.board("minix.send_denied", 50_000, true, m, done)
	m, done, err = sel4CapFault()
	if err != nil {
		return nil, err
	}
	l.board("sel4.cap_fault", 50_000, true, m, done)
	m, done = linuxDeniedOpen()
	l.board("linuxsim.mq_denied", 50_000, true, m, done)
	m, done, err = minixDeniedFork()
	if err != nil {
		return nil, err
	}
	l.board("minix.fork_denied", 20_000, true, m, done)
	m, done = linuxFork()
	l.board("linuxsim.fork", 20_000, false, m, done)

	acm := core.Fig3Matrix()
	l.op("core.acm_check_allowed", 2_000_000, false, func() {
		if acm.Check(core.Fig3App2, core.Fig3App1, 2) != nil {
			panic("Fig. 3 allowed edge denied")
		}
	})
	l.op("core.acm_check_denied", 1_000_000, true, func() {
		if acm.Check(core.Fig3App2, core.Fig3App1, 1) == nil {
			panic("Fig. 3 denied edge allowed")
		}
	})

	g := polcheck.NewGraph("ledger")
	g.AddFlow(polcheck.Subject("client"), polcheck.Subject("server"), []string{"mt1"}, "ledger")
	mon := monitor.New(g, monitor.Options{})
	l.op("monitor.observe", 2_000_000, false, func() { mon.Observe("client", "server", "mt1") })
	if st := mon.Stats(); st.PolicyDrifts != 0 {
		return nil, fmt.Errorf("ledger: monitor flagged its own graph: %+v", st)
	}

	var virtual obs.Time
	events := obs.NewEventLog(func() obs.Time { return virtual }, 0)
	ev := obs.SecurityEvent{Kind: obs.EventIPCDenied, Mechanism: obs.MechACM, Denied: true, Src: "web", Dst: "actuator", Detail: "denied"}
	l.op("obs.event_record", 1_000_000, true, func() { virtual++; events.Emit(ev) })

	if err := ledgerBus(l); err != nil {
		return nil, err
	}
	ledgerBACnet(l)

	raw := []byte("POST /setpoint HTTP/1.0\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 10\r\n\r\nvalue=23.5")
	l.op("httpmini.parse", 500_000, true, func() {
		var p httpmini.Parser
		p.Feed(raw)
		if req, err := p.Next(); err != nil || req == nil {
			panic("httpmini: ledger request did not parse")
		}
	})

	ledgerPlant(l)
	if err := ledgerTenant(l); err != nil {
		return nil, err
	}
	if err := ledgerDeploy(l); err != nil {
		return nil, err
	}
	if err := ledgerHeadEnd(l); err != nil {
		return nil, err
	}
	return l.rows, nil
}

// linuxDeviceRead: one DevRead syscall per operation, served in-kernel.
func linuxDeviceRead() (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	plant.Attach(m.Bus(), plant.NewRoom(m.Clock(), plant.DefaultConfig()))
	k := linuxsim.Boot(m, linuxsim.Config{})
	k.RegisterDeviceFile(plant.DevTempSensor, 1, 1, 0o600)
	done := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "app", UID: 1, GID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		for {
			if _, err := api.DevRead(plant.DevTempSensor, plant.RegTempMilliC); err != nil {
				return
			}
			*done++
		}
	}})
	mustSpawn(k.SpawnImage("app"))
	return m, done
}

// minixBoard boots MINIX with policy and spawns each image at its ACID.
func minixBoard(policy *core.Policy, images []minix.Image, acids []core.ACID) (*machine.Machine, error) {
	m := machine.New(machine.Config{})
	k, err := minix.Boot(m, policy.Seal(), minix.Config{})
	if err != nil {
		return nil, err
	}
	for _, img := range images {
		k.RegisterImage(img)
	}
	for i, img := range images {
		if _, err := k.SpawnImage(img.Name, acids[i]); err != nil {
			m.Shutdown()
			return nil, err
		}
	}
	return m, nil
}

// minixServer receives and acknowledges forever.
var minixServer = minix.Image{Name: "server", Priority: 7, Body: func(api *minix.API) {
	for {
		msg, err := api.Receive(minix.EndpointAny)
		if err != nil {
			return
		}
		_ = api.Send(msg.Source, minix.NewMessage(0))
	}
}}

// minixEcho: one allowed SendRec round trip per operation.
func minixEcho() (*machine.Machine, *int64, error) {
	policy := core.NewPolicy()
	policy.IPC.Allow(1, 2, 1).AllowBidirectionalAck(1, 2)
	done := new(int64)
	client := minix.Image{Name: "client", Priority: 7, Body: func(api *minix.API) {
		server, _ := api.Lookup("server")
		for {
			if _, err := api.SendRec(server, minix.NewMessage(1)); err != nil {
				return
			}
			*done++
		}
	}}
	m, err := minixBoard(policy, []minix.Image{minixServer, client}, []core.ACID{2, 1})
	return m, done, err
}

// minixDeniedSend: one Send the ACM refuses (m_type 2 is not granted) per
// operation.
func minixDeniedSend() (*machine.Machine, *int64, error) {
	policy := core.NewPolicy()
	policy.IPC.Allow(1, 2, 1).AllowBidirectionalAck(1, 2)
	done := new(int64)
	client := minix.Image{Name: "client", Priority: 7, Body: func(api *minix.API) {
		server, _ := api.Lookup("server")
		for {
			if err := api.Send(server, minix.NewMessage(2)); !errors.Is(err, core.ErrDenied) {
				return
			}
			*done++
		}
	}}
	m, err := minixBoard(policy, []minix.Image{minixServer, client}, []core.ACID{2, 1})
	return m, done, err
}

// minixDeniedFork: one fork2 request the process manager refuses (the
// client holds no fork grant) per operation.
func minixDeniedFork() (*machine.Machine, *int64, error) {
	done := new(int64)
	client := minix.Image{Name: "client", Priority: 7, Body: func(api *minix.API) {
		for {
			if _, err := api.Fork2("client", 0); err == nil {
				return
			}
			*done++
		}
	}}
	m, err := minixBoard(core.NewPolicy(), []minix.Image{client}, []core.ACID{1})
	return m, done, err
}

// sel4Call: one allowed Call/Reply round trip through an endpoint per
// operation.
func sel4Call() (*machine.Machine, *int64, error) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	ep := k.CreateEndpoint("rpc")
	done := new(int64)
	server := k.CreateThread("server", 7, func(api *sel4.API) {
		for {
			if _, err := api.Recv(1); err != nil {
				return
			}
			if err := api.Reply(sel4.Msg{}); err != nil {
				return
			}
		}
	})
	client := k.CreateThread("client", 7, func(api *sel4.API) {
		for {
			if _, err := api.Call(1, sel4.Msg{Label: 1}); err != nil {
				return
			}
			*done++
		}
	})
	for _, err := range []error{
		k.InstallCap(server, 1, sel4.EndpointCap(ep, sel4.CapRead, 0)),
		k.InstallCap(client, 1, sel4.EndpointCap(ep, sel4.RightsRWG, 0)),
		k.Start(server),
		k.Start(client),
	} {
		if err != nil {
			m.Shutdown()
			return nil, nil, err
		}
	}
	return m, done, nil
}

// sel4CapFault: one Call through an empty capability slot per operation.
func sel4CapFault() (*machine.Machine, *int64, error) {
	m := machine.New(machine.Config{})
	k := sel4.NewKernel(m, sel4.Config{})
	done := new(int64)
	client := k.CreateThread("client", 7, func(api *sel4.API) {
		for {
			if _, err := api.Call(5, sel4.Msg{Label: 1}); err == nil {
				return
			}
			*done++
		}
	})
	if err := k.Start(client); err != nil {
		m.Shutdown()
		return nil, nil, err
	}
	return m, done, nil
}

// linuxMQ: one POSIX message-queue request/response round trip per
// operation.
func linuxMQ() (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := linuxsim.Boot(m, linuxsim.Config{})
	done := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "server", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		req, err := api.MQOpen("/req", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: 0o600})
		if err != nil {
			return
		}
		resp, err := api.MQOpen("/resp", linuxsim.MQOpenFlags{Create: true, Write: true, Mode: 0o600})
		if err != nil {
			return
		}
		pong := []byte("pong")
		for {
			if _, err := api.MQReceive(req); err != nil {
				return
			}
			if err := api.MQSend(resp, pong, 0); err != nil {
				return
			}
		}
	}})
	k.RegisterImage(linuxsim.Image{Name: "client", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		req := openRetry(api, "/req", linuxsim.MQOpenFlags{Write: true})
		resp := openRetry(api, "/resp", linuxsim.MQOpenFlags{Read: true})
		ping := []byte("ping")
		for {
			if err := api.MQSend(req, ping, 0); err != nil {
				return
			}
			if _, err := api.MQReceive(resp); err != nil {
				return
			}
			*done++
		}
	}})
	mustSpawn(k.SpawnImage("server"))
	mustSpawn(k.SpawnImage("client"))
	return m, done
}

// openRetry opens a queue another process creates, waiting for it.
func openRetry(api *linuxsim.API, name string, flags linuxsim.MQOpenFlags) int32 {
	for {
		if fd, err := api.MQOpen(name, flags); err == nil {
			return fd
		}
		api.Sleep(time.Millisecond)
	}
}

// linuxDeniedOpen: one mq_open that DAC refuses (another account's 0600
// queue) per operation.
func linuxDeniedOpen() (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := linuxsim.Boot(m, linuxsim.Config{})
	done := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "owner", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		if _, err := api.MQOpen("/q", linuxsim.MQOpenFlags{Create: true, Read: true, Mode: 0o600}); err != nil {
			return
		}
		for {
			api.Sleep(time.Hour)
		}
	}})
	k.RegisterImage(linuxsim.Image{Name: "intruder", UID: 2, Priority: 7, Body: func(api *linuxsim.API) {
		api.Sleep(time.Millisecond)
		for {
			if _, err := api.MQOpen("/q", linuxsim.MQOpenFlags{Write: true}); !errors.Is(err, linuxsim.ErrPerm) {
				return
			}
			*done++
		}
	}})
	mustSpawn(k.SpawnImage("owner"))
	mustSpawn(k.SpawnImage("intruder"))
	return m, done
}

// linuxFork: one fork of a child that exits at once, per operation.
func linuxFork() (*machine.Machine, *int64) {
	m := machine.New(machine.Config{})
	k := linuxsim.Boot(m, linuxsim.Config{})
	done := new(int64)
	k.RegisterImage(linuxsim.Image{Name: "child", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {}})
	k.RegisterImage(linuxsim.Image{Name: "parent", UID: 1, Priority: 7, Body: func(api *linuxsim.API) {
		for {
			if _, err := api.Fork("child"); err != nil {
				return
			}
			*done++
		}
	}})
	mustSpawn(k.SpawnImage("parent"))
	return m, done
}

func mustSpawn(_ int, err error) {
	if err != nil {
		panic(fmt.Sprintf("ledger: spawning a ledger process: %v", err))
	}
}

// ledgerBus times one bus delivery barrier carrying one frame to each of 64
// boards, the building-fleet shape.
func ledgerBus(l *ledger) error {
	const boards = 64
	bus := vnet.NewBus()
	stacks := make([]*vnet.Stack, boards)
	listeners := make([]*vnet.Listener, boards)
	for i := range stacks {
		stacks[i] = vnet.NewStack()
		ln, err := stacks[i].Listen(bas.BACnetPort)
		if err != nil {
			return err
		}
		listeners[i] = ln
		bus.AddNode(fmt.Sprintf("room%02d", i), stacks[i])
	}
	head := bus.AddNode("bms", nil)
	conns := make([]*vnet.BusConn, boards)
	for i := range conns {
		conns[i] = bus.Dial(head, vnet.NodeID(i), bas.BACnetPort)
	}
	bus.Flush()
	boardConns := make([]*vnet.Conn, boards)
	for i := range boardConns {
		c, err := stacks[i].Accept(listeners[i])
		if err != nil {
			return fmt.Errorf("ledger: bus dial to room %d not delivered: %w", i, err)
		}
		boardConns[i] = c
	}
	frame := bacnet.AppendFrame(nil, bacnet.PDU{Type: bacnet.ReadProperty, Device: 1, Object: bacnet.ObjTemperature}.Encode())
	l.op("vnet.flush", 20_000, false, func() {
		for _, c := range conns {
			if err := c.Write(frame); err != nil {
				panic(err)
			}
		}
		bus.Flush()
		for i, c := range boardConns {
			if got, err := stacks[i].BoardRead(c, 0); err != nil || len(got) != len(frame) {
				panic("ledger: bus frame not delivered")
			}
		}
	})
	// Report the barrier in microseconds, as the fleet's rounds are.
	r := l.rows["vnet.flush_ns"]
	delete(l.rows, "vnet.flush_ns")
	for _, ns := range r.samples {
		l.rows.add("vnet.flush_us", "us", ns/1e3)
	}
	return nil
}

// bacnetStore is a two-point device for the codec ledger.
type bacnetStore struct{ setpoint float64 }

func (s *bacnetStore) ReadProperty(obj bacnet.ObjectID) (float64, uint8) { return 21.5, 0 }

func (s *bacnetStore) WriteProperty(obj bacnet.ObjectID, v float64) uint8 {
	s.setpoint = v
	return 0
}

// ledgerBACnet times the codec and the secure proxy's verify path.
func ledgerBACnet(l *ledger) {
	pdu := bacnet.PDU{Type: bacnet.WriteProperty, InvokeID: 7, Device: 12, Object: bacnet.ObjSetpoint, Value: 22.5}
	buf := pdu.AppendEncode(nil)
	l.op("bacnet.encode", 2_000_000, false, func() { buf = pdu.AppendEncode(buf[:0]) })
	l.op("bacnet.decode", 2_000_000, false, func() {
		if _, err := bacnet.DecodePDU(buf); err != nil {
			panic(err)
		}
	})
	// Each sealed frame carries a fresh nonce, so frames are sealed ahead
	// and verified once each.
	const frames = 20_000
	key := []byte("ledger-device-key-0001")
	client := bacnet.NewSecureClient(key, 1)
	sealed := make([][]byte, frames*(ledgerBatches+1))
	for i := range sealed {
		sealed[i] = client.Seal(pdu)
	}
	proxy := bacnet.NewProxy(key, bacnet.NewServer(12, &bacnetStore{}))
	next := 0
	l.op("bacnet.secure_verify", frames, false, func() {
		if _, err := proxy.HandleFrame(sealed[next]); err != nil {
			panic(err)
		}
		next++
	})
}

// ledgerPlant times the room model's lazy integration over 1 ms of virtual
// time: a sensor read after the clock advanced, less the bare advance.
func ledgerPlant(l *ledger) {
	m := machine.New(machine.Config{})
	defer m.Shutdown()
	linuxsim.Boot(m, linuxsim.Config{}) // an idle kernel, so the clock can advance
	room := plant.NewRoom(m.Clock(), plant.DefaultConfig())
	adv := &ledger{rows: metricSet{}}
	adv.op("advance", 200_000, false, func() { m.Run(time.Millisecond) })
	l.op("plant.sync_advance", 200_000, false, func() { m.Run(time.Millisecond); room.Temperature() })
	r := l.rows["plant.sync_advance_ns"]
	delete(l.rows, "plant.sync_advance_ns")
	for i, ns := range r.samples {
		l.rows.add("plant.sync_ns", "ns", ns-adv.rows["advance_ns"].samples[i])
	}
}

// ledgerTenant times Gateway.Handle on each outcome branch, each on a
// gateway configured so that every call takes that branch.
func ledgerTenant(l *ledger) error {
	type branch struct {
		name    string
		cfg     tenantapi.GatewayConfig
		request func(dir *tenantapi.Directory) tenantapi.Request
		want    tenantapi.Outcome
		stepNs  int64
	}
	// Requests arrive stepNs apart: 1 µs lets a roomy gateway refill a token
	// per request; 1 ns keeps a 1/s bucket dry for the whole ledger.
	roomy := tenantapi.GatewayConfig{RatePerSec: 1_000_000, Burst: 1_000_000, AdmitPerTick: 1 << 30}
	branches := []branch{
		{"ok", roomy, func(d *tenantapi.Directory) tenantapi.Request {
			return tenantapi.Request{Token: d.Find("manager-0000").Token, Route: tenantapi.RouteStatus, Room: 3}
		}, tenantapi.OutcomeOK, 1000},
		{"unauthorized", roomy, func(d *tenantapi.Directory) tenantapi.Request {
			return tenantapi.Request{Token: "tok-ffffffffffffffff", Route: tenantapi.RouteStatus, Room: 3}
		}, tenantapi.OutcomeUnauthorized, 1000},
		{"forbidden", roomy, func(d *tenantapi.Directory) tenantapi.Request {
			occ := d.Find("occupant-0000")
			return tenantapi.Request{Token: occ.Token, Route: tenantapi.RouteStatus, Room: (occ.Room + 1) % 16}
		}, tenantapi.OutcomeForbidden, 1000},
		{"rate_limited", tenantapi.GatewayConfig{RatePerSec: 1, Burst: 1, AdmitPerTick: 1 << 30, TickNs: 1 << 62}, func(d *tenantapi.Directory) tenantapi.Request {
			return tenantapi.Request{Token: d.Find("manager-0000").Token, Route: tenantapi.RouteStatus, Room: 3}
		}, tenantapi.OutcomeRateLimited, 1},
		{"overload", tenantapi.GatewayConfig{AdmitPerTick: 1, TickNs: 1 << 62}, func(d *tenantapi.Directory) tenantapi.Request {
			return tenantapi.Request{Token: d.Find("manager-0000").Token, Route: tenantapi.RouteStatus, Room: 3}
		}, tenantapi.OutcomeOverload, 1000},
	}
	for _, br := range branches {
		var nowNs int64
		now := func() obs.Time { return obs.Time(nowNs) }
		dir := tenantapi.NewDirectory(tenantapi.DirectoryConfig{Seed: 7})
		cfg := br.cfg
		cfg.Now, cfg.Registry, cfg.Events = now, obs.NewRegistry(), obs.NewEventLog(now, 64)
		gw := tenantapi.NewGateway(dir, tenantapi.NewSimBackend(16, now), cfg)
		req := br.request(dir)
		var resp tenantapi.Response
		gw.Handle(&req, &resp) // spends the single token or admission slot
		var wrong error
		l.op("tenantapi.handle_"+br.name, 200_000, false, func() {
			nowNs += br.stepNs
			if got := gw.Handle(&req, &resp); got != br.want && wrong == nil {
				wrong = fmt.Errorf("ledger: tenant branch %s answered %s", br.name, got)
			}
		})
		if wrong != nil {
			return wrong
		}
	}
	return nil
}

// ledgerDeploy times bas.Deploy (with its pre-deploy policy gate) for each
// headline platform on a fresh testbed.
func ledgerDeploy(l *ledger) error {
	sc := bas.DefaultScenario()
	for b := 0; b < ledgerBatches; b++ {
		var total time.Duration
		n := 0
		for rep := 0; rep < 10; rep++ {
			for _, p := range bas.AllPlatforms() {
				tb := bas.NewTestbed(sc)
				start := time.Now()
				_, err := bas.Deploy(p, tb, sc, bas.DeployOptions{})
				total += time.Since(start)
				n++
				tb.Machine.Shutdown()
				if err != nil {
					return err
				}
			}
		}
		l.rows.add("bas.deploy_ms", "ms", float64(total)/float64(n)/1e6)
	}
	return nil
}

// ledgerHeadEnd steps a small probe building with the profiler attached and
// reports the head-end's host time per room per round.
func ledgerHeadEnd(l *ledger) error {
	const rooms, rounds = 8, 200
	mix, err := lab.Mix("paper").Platforms()
	if err != nil {
		return err
	}
	secure, err := lab.SecurePattern("even").Rooms(rooms)
	if err != nil {
		return err
	}
	for b := 0; b < ledgerBatches; b++ {
		prof := perf.New(perf.Options{})
		bld, err := building.New(building.Config{Rooms: rooms, Mix: mix, Secure: secure, Workers: 1, Profiler: prof})
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			bld.Step()
		}
		bld.Close()
		head := phase(prof.Snapshot(true), "building.headend")
		l.rows.add("building.headend_ns_per_room", "ns", float64(head.TotalNs)/float64(rounds*rooms))
	}
	return nil
}

// phase finds a phase row in a snapshot (zero row if absent).
func phase(s *perf.Snapshot, name string) perf.PhaseSnap {
	for _, p := range s.Phases {
		if p.Name == name {
			return p
		}
	}
	return perf.PhaseSnap{Name: name}
}

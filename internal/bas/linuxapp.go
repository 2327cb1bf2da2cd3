package bas

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mkbas/internal/bacnet"
	"mkbas/internal/linuxsim"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
	"mkbas/internal/polcheck/monitor"
)

// POSIX message-queue names — "the scenario process in Linux spawns all
// other processes and creates 6 message queues that are needed for various
// communications" (Section IV-C).
const (
	QSensorData = "/sensor-data"
	QHeaterCmd  = "/heater-cmd"
	QAlarmCmd   = "/alarm-cmd"
	QWebReq     = "/web-req"
	QWebResp    = "/web-resp"
	QAuditLog   = "/audit-log"
)

// Wire format on Linux: newline-less text commands, e.g. "temp 21.50",
// "heater on", "setpoint 23", "status".

// Unix accounts. The paper's default deployment runs every process under the
// same account; the Hardened variant gives each a unique account, which the
// paper notes as the (insufficient) DAC mitigation.
const (
	baseUID = 1000
	baseGID = 1000

	hardScenarioUID = 100
	hardSensorUID   = 101
	hardCtrlUID     = 102
	hardHeaterUID   = 103
	hardAlarmUID    = 104
	hardWebUID      = 105
	hardCtrlGID     = 50 // control-plane group
	hardWebGID      = 60

	// The gateway account sits outside the control group, like the web
	// interface: the 0o602/0o604 web-queue modes already admit "other"
	// writers/readers, so no DAC table change is needed to host it.
	hardGatewayUID = 106
	// The tenant API gateway account mirrors the field-bus gateway's
	// placement: outside the control group, web-queue access only.
	hardTenantUID = 107
)

// account pairs a uid and gid.
type account struct{ uid, gid int }

// linuxAccounts is the deployment's account table, shared with the static
// DAC model (LinuxScenarioDAC) so the analyzer sees exactly what boots.
func linuxAccounts(hardened bool) map[string]account {
	if hardened {
		return map[string]account{
			NameScenario:     {hardScenarioUID, hardCtrlGID},
			NameTempSensor:   {hardSensorUID, hardCtrlGID},
			NameTempControl:  {hardCtrlUID, hardCtrlGID},
			NameHeaterAct:    {hardHeaterUID, hardCtrlGID},
			NameAlarmAct:     {hardAlarmUID, hardCtrlGID},
			NameWebInterface: {hardWebUID, hardWebGID},
		}
	}
	return map[string]account{
		NameScenario:     {baseUID, baseGID},
		NameTempSensor:   {baseUID, baseGID},
		NameTempControl:  {baseUID, baseGID},
		NameHeaterAct:    {baseUID, baseGID},
		NameAlarmAct:     {baseUID, baseGID},
		NameWebInterface: {baseUID, baseGID},
	}
}

// linuxQueueModes is the deployment's queue permission table, shared with
// the static DAC model.
func linuxQueueModes(hardened bool) map[string]linuxsim.Mode {
	if hardened {
		return map[string]linuxsim.Mode{
			QSensorData: 0o620, // control group may write (sensor)
			QHeaterCmd:  0o620, // control group may write (controller)
			QAlarmCmd:   0o620,
			QWebReq:     0o602, // web (other) may submit requests
			QWebResp:    0o604, // web (other) may read responses
			QAuditLog:   0o600,
		}
	}
	return map[string]linuxsim.Mode{
		QSensorData: 0o600, QHeaterCmd: 0o600, QAlarmCmd: 0o600,
		QWebReq: 0o600, QWebResp: 0o600, QAuditLog: 0o600,
	}
}

// linuxQueueCreators maps each queue to the process whose MQOpen(Create)
// establishes it — the queue's DAC owner: actuators create their command
// queues, the controller everything else.
func linuxQueueCreators() map[string]string {
	return map[string]string{
		QSensorData: NameTempControl,
		QHeaterCmd:  NameHeaterAct,
		QAlarmCmd:   NameAlarmAct,
		QWebReq:     NameTempControl,
		QWebResp:    NameTempControl,
		QAuditLog:   NameTempControl,
	}
}

// LinuxDeployment is the booted Linux platform.
type LinuxDeployment struct {
	deploymentBase
	Kernel  *linuxsim.Kernel
	Testbed *Testbed
}

var _ Deployment = (*LinuxDeployment)(nil)

// WebPID returns the unix pid of the (possibly compromised) web interface,
// for the GrantRoot escalation step.
func (d *LinuxDeployment) WebPID() (int, error) {
	return d.Kernel.PIDOf(NameWebInterface)
}

// ControllerAlive reports whether the temperature control process still has
// a pid.
func (d *LinuxDeployment) ControllerAlive() bool {
	_, err := d.Kernel.PIDOf(NameTempControl)
	return err == nil
}

// deployLinux is the Linux backend of the Deploy registry. platform selects
// the same-account default (PlatformLinux) or the unique-account hardened
// configuration (PlatformLinuxHardened).
func deployLinux(platform Platform, tb *Testbed, cfg ScenarioConfig, opts DeployOptions) (*LinuxDeployment, error) {
	hardened := platform == PlatformLinuxHardened
	// Pre-deploy gate: the hardened configuration claims the scenario's
	// security contract, so prove its DAC model satisfies it before boot.
	// The same-account default deploys no per-process policy and skips the
	// gate (see DeployOptions.SkipPolicyCheck).
	if hardened && !opts.SkipPolicyCheck {
		if err := checkDeployPolicy(polcheck.FromDAC(LinuxScenarioDAC(true, false))); err != nil {
			return nil, err
		}
	}
	k := linuxsim.Boot(tb.Machine, linuxsim.Config{Net: tb.Net})
	sup := newDeploySupervision(tb, &cfg, opts)
	webBody := opts.LinuxWeb
	if webBody == nil {
		// The Linux deployment exports board metrics over its own web
		// interface, the way a real Linux controller would run node_exporter.
		metrics := tb.Machine.Obs().Metrics()
		webBody = func(api *linuxsim.API) { linuxWebBody(api, metrics) }
	}

	acct := linuxAccounts(hardened)
	qmode := linuxQueueModes(hardened)

	// Device files: same-account deployment puts everything under one
	// owner; hardened gives each driver its device.
	if hardened {
		k.RegisterDeviceFile(plant.DevTempSensor, hardSensorUID, hardCtrlGID, 0o600)
		k.RegisterDeviceFile(plant.DevHeater, hardHeaterUID, hardCtrlGID, 0o600)
		k.RegisterDeviceFile(plant.DevAlarm, hardAlarmUID, hardCtrlGID, 0o600)
	} else {
		k.RegisterDeviceFile(plant.DevTempSensor, baseUID, baseGID, 0o600)
		k.RegisterDeviceFile(plant.DevHeater, baseUID, baseGID, 0o600)
		k.RegisterDeviceFile(plant.DevAlarm, baseUID, baseGID, 0o600)
	}

	k.RegisterImage(linuxsim.Image{
		Name: NameHeaterAct, Priority: 4,
		UID: acct[NameHeaterAct].uid, GID: acct[NameHeaterAct].gid,
		Body: linuxActuatorBody(QHeaterCmd, "heater", plant.DevHeater, qmode[QHeaterCmd]),
	})
	k.RegisterImage(linuxsim.Image{
		Name: NameAlarmAct, Priority: 4,
		UID: acct[NameAlarmAct].uid, GID: acct[NameAlarmAct].gid,
		Body: linuxActuatorBody(QAlarmCmd, "alarm", plant.DevAlarm, qmode[QAlarmCmd]),
	})
	k.RegisterImage(linuxsim.Image{
		Name: NameTempControl, Priority: 5,
		UID: acct[NameTempControl].uid, GID: acct[NameTempControl].gid,
		Body: linuxControllerBody(cfg.Controller, qmode),
	})
	k.RegisterImage(linuxsim.Image{
		Name: NameTempSensor, Priority: 6,
		UID: acct[NameTempSensor].uid, GID: acct[NameTempSensor].gid,
		Body: linuxSensorBody(cfg.SamplePeriod),
	})
	k.RegisterImage(linuxsim.Image{
		Name: NameWebInterface, Priority: 7,
		UID: acct[NameWebInterface].uid, GID: acct[NameWebInterface].gid,
		Body: webBody,
	})

	if hardened && opts.Recovery {
		// Recovery on Linux is a root supervisord-style daemon, only offered
		// with the hardened configuration. The same-account default never gets
		// one: the paper's deployment has no supervisor, which is the gap the
		// chaos experiment (E10) measures.
		k.RegisterImage(linuxsim.Image{
			Name: NameSupervisor, Priority: 2, UID: 0, GID: 0,
			Body: linuxSupervisorBody(supervisedImages()),
		})
	}

	if hardened {
		// Unique accounts cannot be reached through fork (children inherit
		// credentials), so the deployment spawns each process directly.
		if opts.Recovery {
			if _, err := k.SpawnImage(NameSupervisor); err != nil {
				return nil, fmt.Errorf("bas: spawning %s: %w", NameSupervisor, err)
			}
		}
		for _, name := range []string{NameHeaterAct, NameAlarmAct, NameTempControl, NameTempSensor, NameWebInterface} {
			if _, err := k.SpawnImage(name); err != nil {
				return nil, fmt.Errorf("bas: spawning %s: %w", name, err)
			}
		}
	} else {
		k.RegisterImage(linuxsim.Image{
			Name: NameScenario, Priority: 3, UID: baseUID, GID: baseGID,
			Body: func(api *linuxsim.API) {
				for _, name := range []string{NameHeaterAct, NameAlarmAct, NameTempControl, NameTempSensor, NameWebInterface} {
					if _, err := api.Fork(name); err != nil {
						api.Trace("bas", fmt.Sprintf("loader: fork %s failed: %v", name, err))
					}
				}
				api.Exit()
			},
		})
		if _, err := k.SpawnImage(NameScenario); err != nil {
			return nil, fmt.Errorf("bas: spawning loader: %w", err)
		}
	}
	if opts.BACnet.Enabled {
		gwUID, gwGID := baseUID, baseGID
		if hardened {
			gwUID, gwGID = hardGatewayUID, hardWebGID
		}
		// The deployment owns the proxy's anti-replay state so a respawned
		// gateway resumes its nonce floor. Spawned directly (not through the
		// loader) on both DAC configurations: unique accounts cannot be
		// reached through fork anyway.
		state := bacnet.NewProxyState()
		k.RegisterImage(linuxsim.Image{
			Name: NameBACnetGateway, Priority: 7, UID: gwUID, GID: gwGID,
			Body: linuxBACnetGatewayBody(opts.BACnet, state, tb.Machine.Obs(), sup),
		})
		if _, err := k.SpawnImage(NameBACnetGateway); err != nil {
			return nil, fmt.Errorf("bas: spawning bacnet gateway: %w", err)
		}
	}
	dep := &LinuxDeployment{
		deploymentBase: deploymentBase{platform: platform, tb: tb},
		Kernel:         k,
		Testbed:        tb,
	}
	if opts.Monitor {
		dep.attachMonitor(linuxMonitorGraph(opts.BACnet.Enabled, opts.TenantAPI), monitor.Options{Profiler: opts.Profiler})
	}
	return dep, nil
}

// linuxMonitorGraph builds the certified graph the online monitor verifies
// against on BOTH Linux configurations: the hardened unique-account
// contract, the deployment's intended least-privilege shape. The
// same-account default deploys no per-process DAC policy, so there is no
// enforced policy to mirror — the monitor checks the contract instead,
// which is exactly how it flags a compromised web process doing what
// same-account DAC cannot forbid (writing /heater-cmd directly). When the
// BACnet gateway is deployed it joins the model with its hardened account;
// like the web interface it sits outside the control group, so the
// 0o602/0o604 web-queue modes already derive its legitimate edges.
// tenant API gateway subject joins the same way, under its own account.
func linuxMonitorGraph(withGateway, withTenant bool) *polcheck.Graph {
	model := LinuxScenarioDAC(true, false)
	if withGateway {
		model.Subjects = append(model.Subjects, polcheck.DACSubject{
			Name: NameBACnetGateway, UID: hardGatewayUID, GID: hardWebGID,
		})
	}
	if withTenant {
		model.Subjects = append(model.Subjects, polcheck.DACSubject{
			Name: NameTenantGateway, UID: hardTenantUID, GID: hardWebGID,
		})
	}
	return polcheck.FromDAC(model)
}

// linuxOpenRetry opens a queue, retrying while it does not exist yet
// (boot-order race between readers that create and writers that open).
func linuxOpenRetry(api *linuxsim.API, name string, flags linuxsim.MQOpenFlags) (int32, error) {
	for i := 0; i < 100; i++ {
		fd, err := api.MQOpen(name, flags)
		if err == nil {
			return fd, nil
		}
		if !errors.Is(err, linuxsim.ErrNoEnt) {
			return 0, err
		}
		api.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("bas: queue %s never appeared", name)
}

// linuxActuatorBody creates its command queue and passively applies
// commands ("<verb> on|off").
func linuxActuatorBody(queue, verb string, dev plantDevice, mode linuxsim.Mode) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		fd, err := api.MQOpen(queue, linuxsim.MQOpenFlags{Create: true, Read: true, Mode: mode})
		if err != nil {
			api.Trace("bas", fmt.Sprintf("%s driver: open: %v", verb, err))
			return
		}
		for {
			msg, err := api.MQReceive(fd)
			if err != nil {
				return
			}
			fields := strings.Fields(string(msg.Data))
			if len(fields) != 2 || fields[0] != verb {
				continue
			}
			var value uint32
			if fields[1] == "on" {
				value = 1
			}
			if err := api.DevWrite(dev, plant.RegActuate, value); err != nil {
				api.Trace("bas", fmt.Sprintf("%s driver: devwrite: %v", verb, err))
			}
		}
	}
}

// linuxSensorBody samples the room and pushes readings.
func linuxSensorBody(period time.Duration) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		fd, err := linuxOpenRetry(api, QSensorData, linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			api.Trace("bas", fmt.Sprintf("sensor: %v", err))
			return
		}
		// line is rebuilt in place each tick; MQSend copies the payload, so
		// the steady-state sample path allocates nothing.
		var line []byte
		for {
			api.Sleep(period)
			raw, err := api.DevRead(plant.DevTempSensor, plant.RegTempMilliC)
			if err != nil {
				continue
			}
			line = append(line[:0], "temp "...)
			line = plant.AppendTempFixed4(line, raw)
			if err := api.MQSend(fd, line, 0); err != nil {
				return
			}
		}
	}
}

// linuxControllerBody is the control loop: blocking-read sensor data, then
// poll the web request queue, exactly the paper's loop shape ("Then the
// process will check if there are pending messages from web interface
// process for updating new setpoint. At the end of the while loop,
// environment information will be written in a log").
func linuxControllerBody(cfg ControllerConfig, qmode map[string]linuxsim.Mode) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		ctrl := NewController(cfg)
		sensorFD, err := api.MQOpen(QSensorData, linuxsim.MQOpenFlags{Create: true, Read: true, Mode: qmode[QSensorData]})
		if err != nil {
			return
		}
		webReqFD, err := api.MQOpen(QWebReq, linuxsim.MQOpenFlags{Create: true, Read: true, NonBlock: true, Mode: qmode[QWebReq]})
		if err != nil {
			return
		}
		webRespFD, err := api.MQOpen(QWebResp, linuxsim.MQOpenFlags{Create: true, Write: true, Mode: qmode[QWebResp]})
		if err != nil {
			return
		}
		auditFD, err := api.MQOpen(QAuditLog, linuxsim.MQOpenFlags{Create: true, Write: true, NonBlock: true, Mode: qmode[QAuditLog], MaxMsgs: 64})
		if err != nil {
			return
		}
		heaterFD, err := linuxOpenRetry(api, QHeaterCmd, linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			return
		}
		alarmFD, err := linuxOpenRetry(api, QAlarmCmd, linuxsim.MQOpenFlags{Write: true})
		if err != nil {
			return
		}

		command := func(fd int32, verb string, on bool) {
			state := "off"
			if on {
				state = "on"
			}
			_ = api.MQSend(fd, []byte(verb+" "+state), 1)
		}
		// watchdog runs the staleness check and pushes failsafe decisions.
		watchdog := func() {
			heaterChanged, alarmChanged := ctrl.OnTick(api.Now())
			if heaterChanged || alarmChanged {
				api.Trace("bas", "controller: failsafe engaged, sensor readings stale")
			}
			if heaterChanged {
				command(heaterFD, "heater", ctrl.HeaterOn())
			}
			if alarmChanged {
				command(alarmFD, "alarm", ctrl.AlarmOn())
			}
		}
		// drainWeb answers pending web requests.
		drainWeb := func() {
			for {
				req, rerr := api.MQReceive(webReqFD)
				if rerr != nil {
					break
				}
				resp := handleLinuxWebReq(ctrl, string(req.Data))
				_ = api.MQSend(webRespFD, []byte(resp), 0)
			}
		}
		// auditLine is reused across iterations: the status line is rebuilt
		// in place each tick and MQSend copies the payload, so the steady
		// state log write allocates nothing.
		var auditLine []byte
		for {
			var msg linuxsim.MQMsg
			var err error
			if cfg.StalenessWindow > 0 {
				msg, err = api.MQReceiveTimeout(sensorFD, cfg.StalenessWindow/2)
			} else {
				msg, err = api.MQReceive(sensorFD)
			}
			if err != nil {
				if !errors.Is(err, linuxsim.ErrTimeout) {
					return
				}
				// Sensor silence: run the watchdog, and keep the web UI
				// responsive while the sensor path is down.
				watchdog()
				drainWeb()
				continue
			}
			fields := strings.Fields(string(msg.Data))
			if len(fields) == 2 && fields[0] == "temp" {
				temp, perr := strconv.ParseFloat(fields[1], 64)
				if perr == nil {
					// Design flaw preserved: no sender authentication — any
					// process that can write the queue is believed.
					heaterChanged, alarmChanged := ctrl.OnSample(api.Now(), temp)
					if heaterChanged {
						command(heaterFD, "heater", ctrl.HeaterOn())
					}
					if alarmChanged {
						command(alarmFD, "alarm", ctrl.AlarmOn())
					}
				}
			}
			// Non-sensor traffic must not starve the watchdog.
			watchdog()
			drainWeb()
			// Environment log; drop lines when the log is full.
			auditLine = ctrl.Snapshot().AppendText(auditLine[:0])
			_ = api.MQSend(auditFD, auditLine, 0)
		}
	}
}

// linuxSupervisorPeriod paces the supervisor's respawn sweep.
const linuxSupervisorPeriod = time.Second

// linuxSupervisorBody is the supervisord-style process supervisor: a root
// daemon that respawns any scenario process found dead. Only the hardened
// deployment runs one — the paper's default Linux deployment has no
// supervisor, which is what the chaos experiment (E10) measures.
func linuxSupervisorBody(images []string) func(api *linuxsim.API) {
	return func(api *linuxsim.API) {
		for {
			api.Sleep(linuxSupervisorPeriod)
			for _, name := range images {
				_, err := api.Respawn(name)
				if err != nil && !errors.Is(err, linuxsim.ErrExist) {
					api.Trace("supervisord", fmt.Sprintf("respawn %s: %v", name, err))
				}
			}
		}
	}
}

// handleLinuxWebReq processes one text request from the web queue.
func handleLinuxWebReq(ctrl *Controller, req string) string {
	fields := strings.Fields(req)
	switch {
	case len(fields) == 1 && fields[0] == "status":
		return ctrl.Snapshot().String()
	case len(fields) == 2 && fields[0] == "setpoint":
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return "err bad value"
		}
		if err := ctrl.SetSetpoint(v); err != nil {
			return "err range"
		}
		return "ok"
	default:
		return "err unknown request"
	}
}

// linuxControlClient adapts the request/response queue pair to
// ControlClient.
type linuxControlClient struct {
	api    *linuxsim.API
	reqFD  int32
	respFD int32
}

var _ ControlClient = (*linuxControlClient)(nil)

func (c *linuxControlClient) roundTrip(req string) (string, error) {
	if err := c.api.MQSend(c.reqFD, []byte(req), 0); err != nil {
		return "", err
	}
	resp, err := c.api.MQReceive(c.respFD)
	if err != nil {
		return "", err
	}
	return string(resp.Data), nil
}

func (c *linuxControlClient) Status() (Status, error) {
	line, err := c.roundTrip("status")
	if err != nil {
		return Status{}, err
	}
	return parseStatusLine(line)
}

func (c *linuxControlClient) SetSetpoint(v float64) error {
	resp, err := c.roundTrip(fmt.Sprintf("setpoint %.4f", v))
	if err != nil {
		return err
	}
	if resp != "ok" {
		return ErrSetpointRange
	}
	return nil
}

// parseStatusLine decodes Status.String() back into a Status.
func parseStatusLine(line string) (Status, error) {
	var st Status
	for _, field := range strings.Fields(line) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		switch key {
		case "temp":
			st.Temp, _ = strconv.ParseFloat(val, 64)
		case "setpoint":
			st.Setpoint, _ = strconv.ParseFloat(val, 64)
		case "heater":
			st.HeaterOn = val == "on"
		case "alarm":
			st.AlarmOn = val == "on"
		case "samples":
			st.Samples, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if st.Setpoint == 0 {
		return st, fmt.Errorf("bas: malformed status line %q", line)
	}
	return st, nil
}

// linuxWebBody is the legitimate web interface on Linux.
func linuxWebBody(api *linuxsim.API, metrics MetricsSource) {
	reqFD, err := linuxOpenRetry(api, QWebReq, linuxsim.MQOpenFlags{Write: true})
	if err != nil {
		api.Trace("bas", fmt.Sprintf("web: %v", err))
		return
	}
	respFD, err := linuxOpenRetry(api, QWebResp, linuxsim.MQOpenFlags{Read: true})
	if err != nil {
		api.Trace("bas", fmt.Sprintf("web: %v", err))
		return
	}
	l, err := api.NetListen(WebPort)
	if err != nil {
		api.Trace("bas", fmt.Sprintf("web: listen: %v", err))
		return
	}
	client := &linuxControlClient{api: api, reqFD: reqFD, respFD: respFD}
	ServeWeb(linuxListener{api: api, l: l}, client, metrics)
}

// Net adapters.

type linuxListener struct {
	api *linuxsim.API
	l   int32
}

func (ll linuxListener) Accept() (NetConn, error) {
	conn, err := ll.api.NetAccept(ll.l)
	if err != nil {
		return nil, err
	}
	return linuxConn{api: ll.api, fd: conn}, nil
}

type linuxConn struct {
	api *linuxsim.API
	fd  int32
}

func (lc linuxConn) Read(max int) ([]byte, error) { return lc.api.NetRead(lc.fd, max) }
func (lc linuxConn) Write(data []byte) error      { return lc.api.NetWrite(lc.fd, data) }
func (lc linuxConn) Close() error                 { return lc.api.NetClose(lc.fd) }

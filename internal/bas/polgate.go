package bas

import (
	"fmt"

	"mkbas/internal/linuxsim"
	"mkbas/internal/plant"
	"mkbas/internal/polcheck"
)

// ScenarioProperties is the static security contract of the Fig. 2 scenario,
// encoding the paper's Section IV-D attack goals as checkable assertions:
//
//   - the compromised web interface must not command actuators directly
//     (spoofing attack: forged MsgHeaterCmd / queue writes);
//   - the web interface must hold no destroy authority over the controller
//     (process-destruction attack: kill(2) / TCB_Suspend);
//   - the web interface's IPC surface is exactly one destination, the
//     controller's management interface ("the web interface has only one
//     capability, to communicate with the temperature controller process");
//   - and, so that a deny-everything policy cannot trivially pass, the
//     legitimate control flows must exist: sensor → controller → actuators,
//     web → controller.
//
// MINIX ACM and seL4 CapDL scenario policies satisfy every property; the
// default and root-escalated Linux DAC models violate the deny/kill/surface
// properties — the paper's outcome table, derived without booting a kernel.
func ScenarioProperties() []polcheck.Property {
	return []polcheck.Property{
		polcheck.DenyPath{From: NameWebInterface, To: NameHeaterAct},
		polcheck.DenyPath{From: NameWebInterface, To: NameAlarmAct},
		polcheck.NoKillAuthority{Subject: NameWebInterface, Target: NameTempControl},
		polcheck.OnlyEndpoint{Subject: NameWebInterface, Max: 1},
		polcheck.AllowPath{From: NameTempSensor, To: NameTempControl},
		polcheck.AllowPath{From: NameTempControl, To: NameHeaterAct},
		polcheck.AllowPath{From: NameTempControl, To: NameAlarmAct},
		polcheck.AllowPath{From: NameWebInterface, To: NameTempControl},
	}
}

// LinuxScenarioDAC builds the static DAC model of the Linux deployments
// (PlatformLinux and PlatformLinuxHardened) — same account, mode, and
// ownership tables the boot path uses, so the analysis cannot drift from the
// running system. hardened selects the
// unique-accounts variant; webRoot models the paper's privilege-escalation
// assumption by running the web interface as uid 0.
func LinuxScenarioDAC(hardened, webRoot bool) *polcheck.DACModel {
	acct := linuxAccounts(hardened)
	qmode := linuxQueueModes(hardened)
	creators := linuxQueueCreators()

	model := &polcheck.DACModel{}
	names := []string{
		NameTempSensor, NameTempControl, NameHeaterAct, NameAlarmAct, NameWebInterface,
	}
	if !hardened {
		// The loader only exists in the same-account deployment (unique
		// accounts cannot be reached through fork).
		names = append([]string{NameScenario}, names...)
	}
	for _, name := range names {
		a := acct[name]
		if webRoot && name == NameWebInterface {
			a = account{0, 0}
		}
		model.Subjects = append(model.Subjects, polcheck.DACSubject{
			Name: name, UID: a.uid, GID: a.gid,
		})
	}
	for _, q := range []string{QSensorData, QHeaterCmd, QAlarmCmd, QWebReq, QWebResp, QAuditLog} {
		owner := acct[creators[q]]
		model.Queues = append(model.Queues, polcheck.DACObject{
			Name: q, OwnerUID: owner.uid, OwnerGID: owner.gid, Mode: qmode[q],
		})
	}
	devOwner := map[plantDevice]account{
		plant.DevTempSensor: acct[NameTempSensor],
		plant.DevHeater:     acct[NameHeaterAct],
		plant.DevAlarm:      acct[NameAlarmAct],
	}
	if !hardened {
		for dev := range devOwner {
			devOwner[dev] = account{baseUID, baseGID}
		}
	}
	for _, dev := range []plantDevice{plant.DevTempSensor, plant.DevHeater, plant.DevAlarm} {
		o := devOwner[dev]
		model.Devices = append(model.Devices, polcheck.DACObject{
			Name: "/dev/" + string(dev), OwnerUID: o.uid, OwnerGID: o.gid,
			Mode: linuxsim.Mode(0o600),
		})
	}
	return model
}

// checkDeployPolicy is the pre-deploy gate: the platform's policy graph must
// satisfy every scenario property or the deployment refuses to boot.
func checkDeployPolicy(g *polcheck.Graph) error {
	report := polcheck.CheckProperties(g, ScenarioProperties())
	if !report.Pass() {
		return fmt.Errorf("bas: pre-deploy policy check failed on %s:\n%s",
			g.Platform, report.Text())
	}
	return nil
}

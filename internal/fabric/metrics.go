package fabric

import "repro/internal/telemetry"

// NewMetrics registers the coordinator's instrument bundle on reg under the
// fabric_* namespace; a nil registry yields nil (metrics off). Every CLI
// that hosts a coordinator uses this bundle, so the /metrics surface and
// the end-of-run report name the same series everywhere.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Hosts:       reg.Gauge("fabric_hosts"),
		Assigned:    reg.Counter("fabric_units_assigned_total"),
		Steals:      reg.Counter("fabric_steals_total"),
		Redelivered: reg.Counter("fabric_units_redelivered_total"),
		HostDeaths:  reg.Counter("fabric_host_deaths_total"),
		Quarantines: reg.Counter("fabric_quarantines_total"),
		Resumed:     reg.Counter("fabric_sessions_resumed_total"),
		BadFrames:   reg.Counter("fabric_frames_rejected_total"),
	}
}

// NewExecutorMetrics registers the executor-side instruments on reg; a nil
// registry yields nil.
func NewExecutorMetrics(reg *telemetry.Registry) *ExecutorMetrics {
	if reg == nil {
		return nil
	}
	return &ExecutorMetrics{
		Reconnects: reg.Counter("fabric_reconnects_total"),
		Resumes:    reg.Counter("fabric_session_resumes_total"),
	}
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Tally is a name → count map, e.g. failure-mode tallies ("correct" → 812).
type Tally map[string]int

// Add merges other into t.
func (t Tally) Add(other Tally) {
	for k, n := range other {
		t[k] += n
	}
}

// Version identifies the binary that produced a report or journal: the main
// module version plus the VCS state baked in by the Go toolchain.
type Version struct {
	Module   string `json:"module,omitempty"`   // main module version ("(devel)" for local builds)
	Revision string `json:"revision,omitempty"` // VCS commit hash
	Time     string `json:"time,omitempty"`     // VCS commit time
	Modified bool   `json:"modified,omitempty"` // tree was dirty at build time
	Go       string `json:"go"`                 // toolchain version
}

// BinaryVersion reads the running binary's build info. It never fails; a
// binary built without VCS stamping just has empty revision fields.
func BinaryVersion() Version {
	v := Version{Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.time":
			v.Time = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}

// String renders the version the way the CLIs' -version flag prints it.
func (v Version) String() string {
	var sb strings.Builder
	mod := v.Module
	if mod == "" {
		mod = "(unknown)"
	}
	sb.WriteString(mod)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&sb, " rev %s", rev)
		if v.Modified {
			sb.WriteString(" (modified)")
		}
	}
	fmt.Fprintf(&sb, " %s", v.Go)
	return sb.String()
}

// UnitStats summarises how a campaign's units reached their outcomes —
// including the journaled-resume split the summary surfaces (replayed
// versus freshly executed).
type UnitStats struct {
	Total       int `json:"total"`                 // units with an outcome
	Executed    int `json:"executed"`              // freshly executed this run
	Replayed    int `json:"replayed"`              // taken from the journal
	Quarantined int `json:"quarantined,omitempty"` // host faults among them
}

// HostStats summarises one executor host of a distributed (fabric)
// campaign, as the coordinator saw it; the fabric's /fleet row embeds it.
// Merged counts verdicts the coordinator folded into the result (the
// authoritative number); Executed is the host's own federated counter,
// which can exceed Merged by verdicts that were still unacked when the
// snapshot was taken.
type HostStats struct {
	Name          string `json:"name"`
	Workers       int    `json:"workers"`
	Merged        int    `json:"merged"`
	Executed      uint64 `json:"executed,omitempty"`
	Reconnects    int    `json:"reconnects,omitempty"`
	Expired       bool   `json:"expired,omitempty"`
	ClockOffsetUS int64  `json:"clock_offset_us,omitempty"`
}

// Report is the machine-readable end-of-run artifact behind -report <file>:
// what ran, which binary ran it, the failure-mode tallies of the paper's
// figures, the resilience counters, the latency histograms, a trace
// summary, and (for fabric runs) the per-host fleet breakdown. It is
// deliberately free of this repository's internal types so external
// tooling can consume it with nothing but a JSON parser.
type Report struct {
	Tool        string                      `json:"tool"`
	Version     Version                     `json:"version"`
	StartedAt   time.Time                   `json:"started_at"`
	ElapsedMS   int64                       `json:"elapsed_ms"`
	Params      map[string]string           `json:"params,omitempty"`
	Units       UnitStats                   `json:"units"`
	Tallies     Tally                       `json:"tallies,omitempty"`
	Groups      map[string]map[string]Tally `json:"groups,omitempty"`
	Resilience  map[string]int              `json:"resilience,omitempty"`
	Counters    map[string]uint64           `json:"counters,omitempty"`
	Histograms  []HistogramSnapshot         `json:"histograms,omitempty"`
	Trace       map[string]int              `json:"trace,omitempty"`
	Hosts       []HostStats                 `json:"hosts,omitempty"`
	Interrupted bool                        `json:"interrupted,omitempty"`
}

// NewReport starts a report for the named tool, stamped with the binary's
// version and the current time.
func NewReport(tool string) *Report {
	return &Report{
		Tool:      tool,
		Version:   BinaryVersion(),
		StartedAt: time.Now().UTC(),
		Params:    make(map[string]string),
		Tallies:   make(Tally),
	}
}

// Group returns (creating on demand) the named tally group, e.g.
// "assignment/program" for the Figure 7 breakdown.
func (r *Report) Group(name string) map[string]Tally {
	if r.Groups == nil {
		r.Groups = make(map[string]map[string]Tally)
	}
	g, ok := r.Groups[name]
	if !ok {
		g = make(map[string]Tally)
		r.Groups[name] = g
	}
	return g
}

// FillTelemetry copies the registry's counters and histograms and the
// tracer's summary into the report. Safe on a nil Telemetry (no-op).
func (r *Report) FillTelemetry(t *Telemetry) {
	if t == nil {
		return
	}
	if reg := t.Registry(); reg != nil {
		r.Counters = reg.Counters()
		r.Histograms = reg.Histograms()
	}
	if tr := t.Tracer(); tr != nil {
		r.Trace = tr.Summary()
	}
}

// Write writes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (atomically via rename, so a scraper
// watching the path never reads a torn file).
func (r *Report) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadReport loads a report file — the inverse of WriteFile, for tooling and
// tests.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("report %s: %w", path, err)
	}
	return &r, nil
}

// FormatTally renders a tally in a fixed, readable order: the paper's four
// failure modes first (always shown, zeros included, so lines are
// comparable across runs), then any extra keys (e.g. hostfault) sorted,
// shown only when non-zero.
func FormatTally(t Tally) string {
	base := []string{"correct", "incorrect", "hang", "crash"}
	var parts []string
	for _, k := range base {
		parts = append(parts, fmt.Sprintf("%s %d", k, t[k]))
	}
	var extra []string
	for k, n := range t {
		if n == 0 {
			continue
		}
		isBase := false
		for _, b := range base {
			if k == b {
				isBase = true
				break
			}
		}
		if !isBase {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		parts = append(parts, fmt.Sprintf("%s %d", k, t[k]))
	}
	return strings.Join(parts, ", ")
}

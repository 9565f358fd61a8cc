package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// RankReport is one rank's line of a RunReport.
type RankReport struct {
	Rank         int                `json:"rank"`
	Sends        int64              `json:"sends"`
	Recvs        int64              `json:"recvs"`
	Steps        int64              `json:"steps"`
	Blocks       int64              `json:"blocks"`
	BytesSent    int64              `json:"bytes_sent"`
	BytesRecvd   int64              `json:"bytes_recvd"`
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	BusySeconds  float64            `json:"busy_seconds"`
}

// RunReport quantifies one run the way the paper's experimental section
// does: wall time, where the time went (per-phase breakdown), how
// balanced the ranks were, and how much communication the
// decomposition cost.  It marshals to JSON for tooling and formats as
// an aligned table for humans.
type RunReport struct {
	Title       string  `json:"title"`
	P           int     `json:"p"`
	WallSeconds float64 `json:"wall_seconds"`
	// PhaseSeconds is the mean over ranks of each phase's time; the
	// values sum to ~WallSeconds because each rank's phases tile its
	// timeline.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Ranks        []RankReport       `json:"ranks"`
	// LoadImbalance is max over ranks of compute time divided by the
	// mean compute time; 1.0 is perfectly balanced.
	LoadImbalance float64 `json:"load_imbalance"`
	// CommSeconds aggregates exchange + collective time (mean over
	// ranks); ComputeSeconds is the mean compute time.
	CommSeconds        float64 `json:"comm_seconds"`
	ComputeSeconds     float64 `json:"compute_seconds"`
	CommToComputeRatio float64 `json:"comm_to_compute_ratio"`
	TotalMessages      int64   `json:"total_messages"`
	TotalBytes         int64   `json:"total_bytes"`
	DroppedSpans       int64   `json:"dropped_spans,omitempty"`
}

// BuildReport condenses a snapshot into a RunReport.
func BuildReport(title string, snap Snapshot) *RunReport {
	rep := &RunReport{
		Title:        title,
		P:            snap.P,
		WallSeconds:  snap.Wall.Seconds(),
		PhaseSeconds: map[string]float64{},
		DroppedSpans: snap.DroppedSpans,
	}
	if snap.P == 0 {
		return rep
	}
	var sumCompute, maxCompute, sumComm float64
	for _, r := range snap.Ranks {
		rr := RankReport{
			Rank:  r.Rank,
			Sends: r.Sends, Recvs: r.Recvs,
			Steps: r.Steps, Blocks: r.Blocks,
			BytesSent: r.BytesSent, BytesRecvd: r.BytesRecvd,
			PhaseSeconds: map[string]float64{},
			BusySeconds:  r.Busy().Seconds(),
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			s := r.Phase[ph].Seconds()
			rr.PhaseSeconds[ph.String()] = s
			rep.PhaseSeconds[ph.String()] += s / float64(snap.P)
		}
		compute := r.Phase[PhaseCompute].Seconds()
		comm := r.Phase[PhaseExchange].Seconds() + r.Phase[PhaseCollective].Seconds()
		sumCompute += compute
		sumComm += comm
		if compute > maxCompute {
			maxCompute = compute
		}
		rep.TotalMessages += r.Sends
		rep.TotalBytes += r.BytesSent
		rep.Ranks = append(rep.Ranks, rr)
	}
	meanCompute := sumCompute / float64(snap.P)
	rep.ComputeSeconds = meanCompute
	rep.CommSeconds = sumComm / float64(snap.P)
	if meanCompute > 0 {
		rep.LoadImbalance = maxCompute / meanCompute
		rep.CommToComputeRatio = rep.CommSeconds / meanCompute
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path (0644, truncating).
func (r *RunReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: report: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: report: %w", err)
	}
	return f.Close()
}

// phaseOrder fixes the column order of the human table.
var phaseOrder = []Phase{PhaseCompute, PhaseExchange, PhaseCollective, PhaseIO, PhaseCheckpoint}

// Format renders the report as an aligned human-readable table.
func (r *RunReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "P=%d  wall %.4f s\n", r.P, r.WallSeconds)
	fmt.Fprintf(&b, "load imbalance %.3f  comm/compute %.3f  messages %d  bytes %d\n",
		r.LoadImbalance, r.CommToComputeRatio, r.TotalMessages, r.TotalBytes)
	if r.DroppedSpans > 0 {
		fmt.Fprintf(&b, "note: %d timeline spans dropped beyond the cap (totals unaffected)\n", r.DroppedSpans)
	}

	fmt.Fprintf(&b, "%-6s", "rank")
	for _, ph := range phaseOrder {
		fmt.Fprintf(&b, " %12s", ph.String()+" (s)")
	}
	fmt.Fprintf(&b, " %10s %10s %10s\n", "sends", "recvs", "MB sent")
	for _, rr := range r.Ranks {
		fmt.Fprintf(&b, "P%-5d", rr.Rank)
		for _, ph := range phaseOrder {
			fmt.Fprintf(&b, " %12.4f", rr.PhaseSeconds[ph.String()])
		}
		fmt.Fprintf(&b, " %10d %10d %10.3f\n", rr.Sends, rr.Recvs, float64(rr.BytesSent)/1e6)
	}
	fmt.Fprintf(&b, "%-6s", "mean")
	for _, ph := range phaseOrder {
		fmt.Fprintf(&b, " %12.4f", r.PhaseSeconds[ph.String()])
	}
	b.WriteByte('\n')
	return b.String()
}

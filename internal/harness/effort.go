package harness

import (
	"fmt"
	"strings"
)

// EffortRow is one transformation step of the ease-of-use proxy.
type EffortRow struct {
	Step         string
	PaperDays    string // the paper's reported person-days
	LinesAdded   int
	LinesRemoved int
}

// EffortReport is the E7 result: the paper reports human effort in
// person-days; an automated reproduction cannot re-measure people, so
// we report, as a proxy, the textual delta each refinement step makes
// to a representative listing of the application.  The proxy preserves
// the paper's qualitative claim: the strategy/SSP steps dominate the
// effort, and the SSP-to-parallel step is nearly free (it is mechanical).
type EffortReport struct {
	Version string
	Rows    []EffortRow
}

// String renders the report.
func (r *EffortReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Ease-of-use proxy (E7), Version %s ===\n", r.Version)
	fmt.Fprintf(&b, "%-42s %12s %14s\n", "transformation step", "paper (days)", "listing delta")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-42s %12s %9s\n", row.Step, row.PaperDays,
			fmt.Sprintf("+%d/-%d", row.LinesAdded, row.LinesRemoved))
	}
	return b.String()
}

// Listings of the application at each refinement stage.  These are the
// pseudo-code equivalents of the paper's Fortran stages, kept honest to
// the transformations of §4.4: indexing data by simulated process,
// restructuring into compute/exchange alternation, splitting host/grid
// blocks, adjusting loop bounds, and inserting archetype calls; the
// final parallel stage merely swaps the archetype library version.
const (
	listingSequential = `read grid parameters from input file
read material description from input file
for each cell (i,j,k): compute update coefficients
for n = 1 to nsteps
  for each cell: update Ex, Ey, Ez from H neighbours
  add source pulse to Ez at source cell
  for each cell: update Hx, Hy, Hz from E neighbours
  record probe value
  for each surface point: accumulate far-field potentials
write final fields to output file
write far-field potentials to output file`

	listingSSP = `host: read grid parameters from input file
host: read material description from input file
host: for each cell (i,j,k): compute update coefficients
scatter coefficients from host to grid processes [archetype]
for n = 1 to nsteps
  exchange H boundary planes with neighbours [archetype]
  for each local cell: update Ex, Ey, Ez from H neighbours
  if process owns source cell: add source pulse to Ez
  exchange E boundary planes with neighbours [archetype]
  for each local cell: update Hx, Hy, Hz from E neighbours
  if process owns probe cell: record probe value
  for each local surface point: accumulate local far-field sums
combine local far-field sums by reduction [archetype]
broadcast probe series from owner [archetype]
gather final fields from grid processes to host [archetype]
host: write final fields to output file
host: write far-field potentials to output file`

	listingParallel = `host: read grid parameters from input file
host: read material description from input file
host: for each cell (i,j,k): compute update coefficients
scatter coefficients from host to grid processes [archetype-mp]
for n = 1 to nsteps
  exchange H boundary planes with neighbours [archetype-mp]
  for each local cell: update Ex, Ey, Ez from H neighbours
  if process owns source cell: add source pulse to Ez
  exchange E boundary planes with neighbours [archetype-mp]
  for each local cell: update Hx, Hy, Hz from E neighbours
  if process owns probe cell: record probe value
  for each local surface point: accumulate local far-field sums
combine local far-field sums by reduction [archetype-mp]
broadcast probe series from owner [archetype-mp]
gather final fields from grid processes to host [archetype-mp]
host: write final fields to output file
host: write far-field potentials to output file`
)

// RunEffort produces the E7 report for the given version ("A" or "C").
// Version A's listings simply omit the far-field lines.
func RunEffort(version string) *EffortReport {
	seq, ssp, par := listingSequential, listingSSP, listingParallel
	daysStrategy, daysSSP, daysMP := "2", "8", "<1"
	if version == "A" {
		strip := func(s string) string {
			var keep []string
			for _, line := range strings.Split(s, "\n") {
				if strings.Contains(line, "far-field") {
					continue
				}
				keep = append(keep, line)
			}
			return strings.Join(keep, "\n")
		}
		seq, ssp, par = strip(seq), strip(ssp), strip(par)
		daysStrategy, daysSSP, daysMP = "<1", "5", "<1"
	}
	addSSP, remSSP := diffLines(seq, ssp)
	addPar, remPar := diffLines(ssp, par)
	return &EffortReport{
		Version: version,
		Rows: []EffortRow{
			{Step: "determine parallelization strategy", PaperDays: daysStrategy},
			{Step: "sequential -> simulated-parallel", PaperDays: daysSSP, LinesAdded: addSSP, LinesRemoved: remSSP},
			{Step: "simulated-parallel -> message-passing", PaperDays: daysMP, LinesAdded: addPar, LinesRemoved: remPar},
		},
	}
}

// diffLines computes the number of lines added and removed between two
// listings, via longest-common-subsequence.  It is the proxy this
// reproduction uses for the paper's person-days "ease of use" numbers:
// the human effort of a transformation scales with the text it touches.
func diffLines(a, b string) (added, removed int) {
	al := splitLines(a)
	bl := splitLines(b)
	n, m := len(al), len(bl)
	// LCS table; listings in this repo are small, so O(n*m) is fine.
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	lcs := dp[0][0]
	return m - lcs, n - lcs
}

func splitLines(s string) []string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

package expt

import (
	"fmt"
	"math"
	"strings"

	"fedpkd/internal/comm"
)

// Claim is one verdict on a run: a statement the run's numbers either bear
// out or not, with the margin by which they do.
type Claim struct {
	// ID names the claim: "<experiment>.<what>", with the leg or codec a
	// contract was checked on in between.
	ID string
	// Paper states the claim: the paper's words for a paper experiment, the
	// contract's for a system experiment.
	Paper string
	// Margin is how far the measurement clears the claim, in the claim's
	// own unit (accuracy fraction, MB, ticks, bytes, count); a check that
	// holds or fails outright scores 0 or -1. NaN means the table held no
	// evidence either way.
	Margin float64
	// Budget is how far below zero Margin may fall and still be noise.
	Budget float64
	// Seeds is the number of seeds Margin was measured over.
	Seeds int
}

// Verdict is a claim's outcome.
type Verdict string

// The three verdicts.
const (
	Reproduced  Verdict = "reproduced"
	WithinNoise Verdict = "within noise"
	Violated    Verdict = "violated"
)

// Verdict decides the claim: reproduced when Margin >= 0, within noise when
// -Budget <= Margin < 0, violated below that (and when Margin is NaN).
func (c Claim) Verdict() Verdict {
	switch {
	case c.Margin >= 0:
		return Reproduced
	case c.Margin >= -c.Budget:
		return WithinNoise
	}
	return Violated
}

// String is the claim's line under its table.
func (c Claim) String() string {
	return fmt.Sprintf("claim %s: %s (margin %+.4g, budget %.4g, seeds %d): %s",
		c.ID, c.Verdict(), c.Margin, c.Budget, c.Seeds, c.Paper)
}

// Scorecard renders every claim of the results as one markdown table.
func Scorecard(scale string, results []*Result) string {
	var b strings.Builder
	b.WriteString("| experiment | claim | paper | verdict | margin | budget | seeds | scale |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		for _, c := range r.Claims {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %+.4g | %.4g | %d | %s |\n",
				r.ID, c.ID, c.Paper, c.Verdict(), c.Margin, c.Budget, c.Seeds, scale)
		}
	}
	return b.String()
}

// Violations returns the ids of the result's violated claims.
func (r *Result) Violations() []string {
	var ids []string
	for _, c := range r.Claims {
		if c.Verdict() == Violated {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// ---- Table predicates ----------------------------------------------------

// group is one pivot group of a table: its label (the group-by cells joined
// with "/") and its keyed values, in row order.
type group struct {
	label string
	keys  []string
	vals  []Cell
}

// get returns the group's number under key; ok is false when the key is
// missing or its cell holds no measurement.
func (g group) get(key string) (float64, bool) {
	for i, k := range g.keys {
		if k == key && g.vals[i].isNum() {
			return g.vals[i].Num, true
		}
	}
	return 0, false
}

// col returns the index of the named column.
func (r *Result) col(name string) int {
	for i, c := range r.Cols {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("expt: %s has no column %q", r.ID, name))
}

// text returns a row's cell in the named column as the table shows it.
func (r *Result) text(row []Cell, name string) string {
	i := r.col(name)
	return row[i].render(r.Cols[i].Kind)
}

// where returns the rows whose cell in col reads as one of vals.
func (r *Result) where(col string, vals ...string) *Result {
	sub := *r
	sub.Rows = nil
	for _, row := range r.Rows {
		for _, v := range vals {
			if r.text(row, col) == v {
				sub.Rows = append(sub.Rows, row)
				break
			}
		}
	}
	return &sub
}

// groups pivots the table: one group per distinct combination of the by
// columns, in first-row order, keying each row's val cell by its key cell.
func (r *Result) groups(key, val string, by ...string) []group {
	var out []group
	index := map[string]int{}
	for _, row := range r.Rows {
		parts := make([]string, len(by))
		for i, b := range by {
			parts[i] = r.text(row, b)
		}
		label := strings.Join(parts, "/")
		gi, ok := index[label]
		if !ok {
			gi = len(out)
			index[label] = gi
			out = append(out, group{label: label})
		}
		out[gi].keys = append(out[gi].keys, r.text(row, key))
		out[gi].vals = append(out[gi].vals, row[r.col(val)])
	}
	return out
}

// byRow makes each row a group keyed by the named columns.
func (r *Result) byRow(cols ...string) []group {
	out := make([]group, len(r.Rows))
	for i, row := range r.Rows {
		out[i].keys = cols
		for _, c := range cols {
			out[i].vals = append(out[i].vals, row[r.col(c)])
		}
	}
	return out
}

// worst folds one more margin into a running minimum; NaN (no evidence) is
// skipped, and the minimum stays NaN until some evidence arrives.
func worst(m, d float64) float64 {
	if math.IsNaN(d) || (!math.IsNaN(m) && m <= d) {
		return m
	}
	return d
}

// lead is the winner predicate: in every group, by how much key beats the
// best other value — higher when sign is +1, lower when -1. A group where
// key or every rival has no measurement gives no evidence.
func lead(groups []group, key string, sign float64) float64 {
	m := math.NaN()
	for _, g := range groups {
		mine, ok := g.get(key)
		if !ok {
			continue
		}
		best := math.NaN()
		for _, k := range g.keys {
			if v, ok := g.get(k); ok && k != key && !(sign*v <= best) {
				best = sign * v
			}
		}
		m = worst(m, sign*mine-best)
	}
	return m
}

// beats is the A-vs-B predicate: in every group, by how much a's value
// exceeds b's.
func beats(groups []group, a, b string) float64 {
	m := math.NaN()
	for _, g := range groups {
		va, okA := g.get(a)
		vb, okB := g.get(b)
		if okA && okB {
			m = worst(m, va-vb)
		}
	}
	return m
}

// rises is the sweep-direction predicate: in every group, the smallest step
// up from one value to the next, in row order.
func rises(groups []group) float64 {
	m := math.NaN()
	for _, g := range groups {
		prev, seen := 0.0, false
		for _, k := range g.keys {
			v, ok := g.get(k)
			if !ok {
				continue
			}
			if seen {
				m = worst(m, v-prev)
			}
			prev, seen = v, true
		}
	}
	return m
}

// seriesLead is the lead predicate over every round of the per-round series
// "<dataset>/<setting>/<algorithm>/<metric>": by how much key's curve stays
// above every rival's.
func (r *Result) seriesLead(key, metric string) float64 {
	m := math.NaN()
	for _, g := range r.groups("algorithm", "algorithm", "dataset", "setting") {
		for t := range r.Series[g.label+"/"+key+"/"+metric] {
			at := group{keys: g.keys}
			for _, algo := range g.keys {
				v := None
				if s := r.Series[g.label+"/"+algo+"/"+metric]; t < len(s) {
					v = s[t]
				}
				at.vals = append(at.vals, Cell{Num: v})
			}
			m = worst(m, lead([]group{at}, key, 1))
		}
	}
	return m
}

// ---- Paper claims --------------------------------------------------------

// paperClaim is one row of the scorecard: a paper claim and how to decide it
// from the experiment's own table.
type paperClaim struct {
	id, paper string
	margin    func(r *Result) float64
}

// client1Labels and client2Labels are fig2's rows of each class-split
// client's own labels.
var (
	client1Labels = []string{"0", "1", "2", "3", "4"}
	client2Labels = []string{"5", "6", "7", "8", "9"}
)

// paperClaims is the scorecard: per paper experiment, the claims its table
// decides. Each is one seed with no noise budget until seed ensembles
// measure a spread.
var paperClaims = map[string][]paperClaim{
	"fig1": {
		{"kd-trails-fedavg", "plain KD trails FedAvg in server accuracy", func(r *Result) float64 {
			return beats(r.groups("algorithm", "S_acc", "dataset", "setting"), AlgoFedAvg, AlgoKD)
		}},
		{"non-iid-hurts", "non-IID data lowers both methods' server accuracy", func(r *Result) float64 {
			return beats(r.groups("setting", "S_acc", "dataset", "algorithm"), "IID", "non-IID(α=0.3)")
		}},
	},
	"fig2": {
		{"specialists", "each class-split client's logits beat the other's on its own labels", func(r *Result) float64 {
			return worst(beats(r.where("label", client1Labels...).byRow("client1_acc", "client2_acc"), "client1_acc", "client2_acc"),
				beats(r.where("label", client2Labels...).byRow("client1_acc", "client2_acc"), "client2_acc", "client1_acc"))
		}},
		{"average-unreliable", "the equal average of the two clients' logits trails the specialist on every label", func(r *Result) float64 {
			return worst(beats(r.where("label", client1Labels...).byRow("client1_acc", "aggregated_acc"), "client1_acc", "aggregated_acc"),
				beats(r.where("label", client2Labels...).byRow("client2_acc", "aggregated_acc"), "client2_acc", "aggregated_acc"))
		}},
	},
	"fig3": {
		{"acc-grows", "plain-KD server accuracy grows with the public-set size", func(r *Result) float64 {
			return rises(r.groups("public_size", "S_acc"))
		}},
		{"traffic-crosses", "per-client logit traffic starts below the model-update size and ends above it", func(r *Result) float64 {
			rows := r.byRow("logits_MB_per_client_per_round", "model_update_MB")
			if len(rows) == 0 {
				return math.NaN()
			}
			return worst(beats(rows[:1], "model_update_MB", "logits_MB_per_client_per_round"),
				beats(rows[len(rows)-1:], "logits_MB_per_client_per_round", "model_update_MB"))
		}},
	},
	"fig5": {
		{"s-acc-winner", "FedPKD has the best server accuracy in every setting", func(r *Result) float64 {
			return lead(r.groups("algorithm", "S_acc", "dataset", "setting"), AlgoFedPKD, 1)
		}},
	},
	"fig6": {
		{"curves-dominate", "FedPKD's server-accuracy curve leads every method's at every round", func(r *Result) float64 {
			return r.seriesLead(AlgoFedPKD, "S_acc")
		}},
	},
	"fig7": {
		{"s-acc-winner", "FedPKD has the best server accuracy among hetero-capable methods", func(r *Result) float64 {
			return lead(r.groups("algorithm", "S_acc", "dataset", "setting"), AlgoFedPKD, 1)
		}},
		{"c-acc-winner", "FedPKD has the best client accuracy among hetero-capable methods", func(r *Result) float64 {
			return lead(r.groups("algorithm", "C_acc", "dataset", "setting"), AlgoFedPKD, 1)
		}},
	},
	"table1": {
		{"s-cheapest", "FedPKD needs the least traffic to the server-accuracy target", func(r *Result) float64 {
			return lead(r.groups("algorithm", "MB_to_S_acc", "dataset", "setting"), AlgoFedPKD, -1)
		}},
		{"c-cheapest", "FedPKD needs the least traffic to the client-accuracy target", func(r *Result) float64 {
			return lead(r.groups("algorithm", "MB_to_C_acc", "dataset", "setting"), AlgoFedPKD, -1)
		}},
	},
	"fig8": {
		{"prototypes-cost", "removing prototypes lowers server accuracy", func(r *Result) float64 {
			return beats(r.groups("variant", "S_acc", "dataset", "setting"), "FedPKD", "w/o Pro")
		}},
		{"filtering-cost", "removing the data filter lowers server accuracy", func(r *Result) float64 {
			return beats(r.groups("variant", "S_acc", "dataset", "setting"), "FedPKD", "w/o D.F.")
		}},
	},
	"fig9": {
		{"declines-below-70", "server accuracy declines as θ falls from 70 % to 30 %", func(r *Result) float64 {
			return rises(r.where("theta", "30%", "50%", "70%").groups("theta", "S_acc", "dataset", "setting"))
		}},
	},
	"fig10": {
		{"c10-worst-at-0.1", "on the 10-class task δ=0.1 gives the lowest server accuracy", func(r *Result) float64 {
			return lead(r.where("dataset", string(TaskC10)).groups("delta", "S_acc", "dataset", "setting"), "0.1", -1)
		}},
		{"c10-peaks-at-0.5", "on the 10-class task server accuracy peaks at δ=0.5", func(r *Result) float64 {
			return lead(r.where("dataset", string(TaskC10)).groups("delta", "S_acc", "dataset", "setting"), "0.5", 1)
		}},
	},
}

// decided appends the paper claims of r's experiment, decided on its table,
// and returns r.
func decided(r *Result) *Result {
	for _, p := range paperClaims[r.ID] {
		r.Claims = append(r.Claims, Claim{ID: r.ID + "." + p.id, Paper: p.paper, Margin: p.margin(r), Seeds: 1})
	}
	return r
}

// ---- Contract claims -----------------------------------------------------
//
// The system experiments' contracts. Each margin is computed from the
// comparison the contract has always made, so each claim is violated exactly
// where that comparison failed: a pass/fail check scores 0 or -1, and an
// integer check "x > y" scores x-(y+1).

// holds scores a pass/fail check.
func holds(ok bool) float64 {
	if ok {
		return 0
	}
	return -1
}

// above scores the integer check x > y.
func above(x, y int64) float64 { return float64(x - (y + 1)) }

// asyncFidelity: the async leg's ensemble mean must not trail sync's by more
// than 1pp.
func asyncFidelity(meanS, meanA float64) Claim {
	return Claim{ID: "async.fidelity", Paper: "async mean final server accuracy does not trail sync's by more than 1pp",
		Margin: -(meanS - meanA), Budget: 0.01, Seeds: fidelitySeeds}
}

// asyncLatency: dodging the barrier must cut simulated wall-clock.
func asyncLatency(syncClock, asyncClock uint64) Claim {
	return Claim{ID: "async.latency", Paper: "async simulated wall-clock beats the sync barrier's",
		Margin: math.Min(above(int64(asyncClock), 0), above(int64(syncClock), int64(asyncClock))), Seeds: 1}
}

// churnReplay: same seed and trace must give the same history bytes.
func churnReplay(identical bool) Claim {
	return Claim{ID: "churn.replay", Paper: "same seed and trace replay a byte-identical history",
		Margin: holds(identical), Seeds: 1}
}

// churnFidelity: the churn leg's ensemble mean must not trail the fixed
// cohort's by more than 5pp.
func churnFidelity(meanF, meanC float64) Claim {
	return Claim{ID: "churn.fidelity", Paper: "diurnal mean final server accuracy does not trail the fixed cohort's by more than 5pp",
		Margin: -(meanF - meanC), Budget: 0.05, Seeds: fidelitySeeds}
}

// compressionRounds: the predicted and wire legs ran the same rounds.
func compressionRounds(c comm.Codec, inRounds, wireRounds int) Claim {
	return Claim{ID: "compression." + c.String() + ".rounds", Paper: "in-process and wire legs run the same number of rounds",
		Margin: holds(inRounds == wireRounds), Seeds: 1}
}

// compressionTrajectory: the predicted and wire legs follow the same
// accuracy trajectory, bit for bit.
func compressionTrajectory(c comm.Codec, identical bool) Claim {
	return Claim{ID: "compression." + c.String() + ".trajectory", Paper: "in-process and wire legs follow bit-identical accuracy trajectories",
		Margin: holds(identical), Seeds: 1}
}

// compressionRawRecorded: a compressing codec accounts its float64
// equivalent.
func compressionRawRecorded(c comm.Codec, rawUpload int64) Claim {
	return Claim{ID: "compression." + c.String() + ".raw-recorded", Paper: "the ledger records the raw-equivalent upload bytes",
		Margin: above(rawUpload, 0), Seeds: 1}
}

// compressionRatio: int8 cuts real upload bytes at least 4x against
// float64raw.
func compressionRatio(ratio float64) Claim {
	return Claim{ID: "compression.int8.ratio", Paper: "int8 cuts real upload bytes at least 4x against float64raw",
		Margin: ratio - 4, Seeds: 1}
}

// compressionFidelity: a codec costs at most 0.5pp of mean final server
// accuracy against float64raw. The margin is meanAcc-meanF64, held on the
// side of -budget where the check meanAcc < meanF64-0.005 puts it (the two
// comparisons can round apart by an ulp).
func compressionFidelity(c comm.Codec, meanAcc, meanF64 float64) Claim {
	const budget = 0.005
	m := meanAcc - meanF64
	if meanAcc < meanF64-budget {
		m = math.Min(m, math.Nextafter(-budget, math.Inf(-1)))
	} else {
		m = math.Max(m, -budget)
	}
	return Claim{ID: "compression." + c.String() + ".fidelity", Paper: "the codec costs at most 0.5pp of mean final server accuracy",
		Margin: m, Budget: budget, Seeds: fidelitySeeds}
}

// hierarchyIdentical: a depth-2 tree replays the flat history.
func hierarchyIdentical(mode string, identical bool) Claim {
	return Claim{ID: "hierarchy." + mode + ".identical", Paper: "the depth-2 tree's history is byte-identical to the flat server's",
		Margin: holds(identical), Seeds: 1}
}

// hierarchyTierBilled: a tree run bills tier traffic both ways.
func hierarchyTierBilled(mode string, up, down int64) Claim {
	return Claim{ID: "hierarchy." + mode + ".tier-billed", Paper: "the tree bills tier traffic up and down",
		Margin: holds(!(up == 0 || down == 0)), Seeds: 1}
}

// hierarchyHeap: a leaf's retained heap scales with its shard: shard 1000
// holds more than 3x shard 100.
func hierarchyHeap(heap100, heap1000 int64) Claim {
	return Claim{ID: "hierarchy.heap-scales", Paper: "a leaf over 1000 clients retains more than 3x the heap of one over 100",
		Margin: math.Min(above(heap100, 0), above(heap1000, 3*heap100)), Seeds: 1}
}

// treefaultsStrict: a tolerant tree with no fault plan replays the strict
// tree.
func treefaultsStrict(identical bool) Claim {
	return Claim{ID: "treefaults.strict-invisible", Paper: "a zero-plan tolerant tree's history is byte-identical to the strict tree's",
		Margin: holds(identical), Seeds: 1}
}

// treefaultsReplay: leaf-crash chaos replays byte-identically.
func treefaultsReplay(mode string, identical bool) Claim {
	return Claim{ID: "treefaults." + mode + ".replay", Paper: "leaf-crash chaos replays a byte-identical history",
		Margin: holds(identical), Seeds: 1}
}

// treefaultsTierReplay: leaf-crash chaos replays the same tier totals.
func treefaultsTierReplay(mode string, up1, up2, down1, down2 int64) Claim {
	return Claim{ID: "treefaults." + mode + ".tier-replay", Paper: "leaf-crash chaos replays the same tier ledger totals",
		Margin: holds(!(up1 != up2 || down1 != down2)), Seeds: 1}
}

// treefaultsDegraded: leaf kills show as degraded rounds with lost shards.
func treefaultsDegraded(mode string, degraded, lost int) Claim {
	return Claim{ID: "treefaults." + mode + ".degraded", Paper: "leaf kills produce degraded rounds with lost shards",
		Margin: math.Min(above(int64(degraded), 0), above(int64(lost), 0)), Seeds: 1}
}

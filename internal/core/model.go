package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/made"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Config describes a Duet model.
type Config struct {
	// Hidden layer widths of the autoregressive network. The paper uses
	// MADE 512,256,512,128,1024 for DMV and a 2-layer ResMADE of width 128
	// for Kddcup98 and Census.
	Hidden   []int
	Residual bool

	// Value encoding strategy and its parameters.
	Encoding       ValueEncoding
	EmbedDim       int // width of learned value embeddings
	EmbedThreshold int // EncAuto switches to embeddings above this NDV

	// MPSN configuration; MPSNNone uses the direct one-predicate-per-column
	// encoding.
	MPSN       MPSNKind
	MPSNHidden int
	MPSNOut    int

	Seed int64
}

// DefaultConfig returns the ResMADE-128 configuration the paper uses for
// medium tables.
func DefaultConfig() Config {
	return Config{
		Hidden:         []int{128, 128},
		Residual:       true,
		Encoding:       EncAuto,
		EmbedDim:       32,
		EmbedThreshold: 512,
		MPSNHidden:     64,
		MPSNOut:        16,
		Seed:           42,
	}
}

// DMVConfig returns the larger plain-MADE configuration the paper uses for
// the high-cardinality DMV table.
func DMVConfig() Config {
	c := DefaultConfig()
	c.Hidden = []int{512, 256, 512, 128, 1024}
	c.Residual = false
	return c
}

// ColPred is one predicate on one column, at dictionary-code level.
type ColPred struct {
	Op   workload.Op
	Code int32
}

// Spec is the per-column predicate lists of one query or virtual tuple; an
// empty list marks an unconstrained (wildcard) column.
type Spec [][]ColPred

// Model is a trained or trainable Duet estimator.
type Model struct {
	table  *relation.Table
	cfg    Config
	codecs []*valueCodec
	encs   []*columnEncoder // direct mode (MPSNNone)
	mpsns  []MPSN           // MPSN mode
	net    *made.MADE
	params []*nn.Param

	merged  *mergedMPSN               // optional fused inference path, built by Merge
	plan    atomic.Pointer[made.Plan] // packed batch inference plan, built lazily, nil when stale
	planCfg made.PlanConfig           // how the plan is compiled (e.g. int8 quantization)

	// Batched inference state. The plan is immutable once published and
	// every EstimateCardBatch call takes its own workspace from work, so
	// batched estimation needs no lock; encMu serializes only the MPSN
	// encoders, whose layers keep per-call activations.
	work  sync.Pool // *batchWork
	encMu sync.Mutex

	// Single-query scratch of EstimateCard/EstimateDetail, which (like
	// training) is not safe for concurrent use.
	xRow *tensor.Matrix

	lastSpecs []Spec // specs of the last training forward, for backward routing
}

// batchWork is the scratch one EstimateCardBatch call mutates: the plan's
// activations, the encoded batch, and the per-row constrained columns with
// their code intervals. Buffers keep their capacity across calls.
type batchWork struct {
	plan   made.Workspace
	x      tensor.Matrix
	specs  []Spec
	needed [][]int32             // per row: constrained columns, ascending
	ivs    [][]workload.Interval // per row: the interval of each needed column
	seen   []bool                // per column: constrained by the current query
	colIv  []workload.Interval   // per column: the current query's interval
}

// NewModel builds an untrained Duet model for t.
func NewModel(t *relation.Table, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := t.NumCols()
	m := &Model{table: t, cfg: cfg}
	m.codecs = make([]*valueCodec, n)
	inBlocks := make([]int, n)
	outBlocks := make([]int, n)
	for i, c := range t.Cols {
		m.codecs[i] = newValueCodec(c.NumDistinct(), cfg.Encoding, cfg.EmbedDim, cfg.EmbedThreshold, rng)
		outBlocks[i] = c.NumDistinct()
	}
	if cfg.MPSN == MPSNNone {
		m.encs = make([]*columnEncoder, n)
		for i := range m.encs {
			m.encs[i] = newColumnEncoder(m.codecs[i])
			inBlocks[i] = m.encs[i].width
		}
	} else {
		m.mpsns = make([]MPSN, n)
		for i := range m.mpsns {
			m.mpsns[i] = NewMPSN(cfg.MPSN, predEncWidth(m.codecs[i]), cfg.MPSNHidden, cfg.MPSNOut, rng)
			inBlocks[i] = cfg.MPSNOut
		}
	}
	m.net = made.New(made.Config{
		InBlocks: inBlocks, OutBlocks: outBlocks,
		Hidden: cfg.Hidden, Residual: cfg.Residual, Seed: cfg.Seed + 1,
	})
	for _, vc := range m.codecs {
		m.params = append(m.params, vc.params()...)
	}
	for _, mp := range m.mpsns {
		m.params = append(m.params, mp.Params()...)
	}
	m.params = append(m.params, m.net.Params()...)
	m.xRow = tensor.New(1, m.net.In.Tot)
	m.work.New = func() any {
		return &batchWork{seen: make([]bool, n), colIv: make([]workload.Interval, n)}
	}
	return m
}

// Name identifies the estimator; hybrid-trained models report "duet" and
// data-only models "duet-d" — callers may override via the wrappers in the
// bench package.
func (m *Model) Name() string { return "duet" }

// Table returns the table this model was built for.
func (m *Model) Table() *relation.Table { return m.table }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// SizeBytes reports the parameter memory of the model.
func (m *Model) SizeBytes() int64 { return nn.SizeBytes(m.params) }

// encodeBatch builds the network input for a batch of specs. In MPSN mode
// the per-column MPSNs run first and their outputs fill the column blocks.
func (m *Model) encodeBatch(specs []Spec) *tensor.Matrix {
	return m.encodeBatchInto(specs, nil)
}

// encodeBatchInto is encodeBatch with an optional reusable destination: a
// non-nil buf is resized (keeping capacity) and fully overwritten, so the
// serving hot path encodes micro-batches without allocating. buf == nil
// allocates fresh storage, which training relies on. The direct encoding
// only reads the model; the MPSN encoders keep activations in their layers,
// so concurrent callers in MPSN mode must hold encMu.
func (m *Model) encodeBatchInto(specs []Spec, buf *tensor.Matrix) *tensor.Matrix {
	b := len(specs)
	var x *tensor.Matrix
	if buf != nil {
		x = buf.Resize(b, m.net.In.Tot)
	} else {
		x = tensor.New(b, m.net.In.Tot)
	}
	if m.cfg.MPSN == MPSNNone {
		for r, spec := range specs {
			row := x.Row(r)
			for i, enc := range m.encs {
				dst := m.net.In.Slice(row, i)
				if len(spec[i]) == 0 {
					enc.encodeWildcard(dst)
				} else {
					p := spec[i][0]
					enc.encodePred(dst, p.Op, p.Code)
				}
			}
		}
		return x
	}
	for i, mp := range m.mpsns {
		sets := make([]PredSet, b)
		encW := predEncWidth(m.codecs[i])
		for r, spec := range specs {
			for _, p := range spec[i] {
				e := make([]float32, encW)
				encodeMPSNPred(e, m.codecs[i], p.Op, p.Code)
				sets[r] = append(sets[r], e)
			}
		}
		out := mp.Forward(sets)
		for r := 0; r < b; r++ {
			copy(m.net.In.Slice(x.Row(r), i), out.Row(r))
		}
	}
	return x
}

// Forward encodes specs and runs the autoregressive network, returning
// per-column logits. It is the training forward: it records specs so
// Backward can route gradients into the encoders.
func (m *Model) Forward(specs []Spec) *tensor.Matrix {
	m.lastSpecs = specs
	return m.net.Forward(m.encodeBatch(specs))
}

// Backward backpropagates the logit gradient through the network, the MPSNs
// and into any learned value embeddings.
func (m *Model) Backward(dLogits *tensor.Matrix) {
	dX := m.net.Backward(dLogits)
	specs := m.lastSpecs
	if m.cfg.MPSN == MPSNNone {
		for r, spec := range specs {
			row := dX.Row(r)
			for i, enc := range m.encs {
				if len(spec[i]) == 0 {
					continue
				}
				p := spec[i][0]
				enc.backward(uint8(p.Op), p.Code, m.net.In.Slice(row, i))
			}
		}
		return
	}
	for i, mp := range m.mpsns {
		dBlock := tensor.New(len(specs), m.cfg.MPSNOut)
		for r := range specs {
			copy(dBlock.Row(r), m.net.In.Slice(dX.Row(r), i))
		}
		dEnc := mp.Backward(dBlock)
		vc := m.codecs[i]
		if vc.mode != EncEmbed {
			continue
		}
		for r, spec := range specs {
			for k, p := range spec[i] {
				vc.backward(p.Code, dEnc[r][k][:vc.width])
			}
		}
	}
}

// SpecFromQuery converts a query into the model's per-column predicate
// lists. In direct (non-MPSN) mode, multiple predicates on one column are
// collapsed to the canonical predicate of their intersection interval (the
// probability mask still uses the exact interval, so only the conditioning
// of later columns is approximated; MPSN mode conditions on all predicates).
func (m *Model) SpecFromQuery(q workload.Query) Spec {
	n := m.table.NumCols()
	spec := make(Spec, n)
	for _, p := range q.Preds {
		spec[p.Col] = append(spec[p.Col], ColPred{Op: p.Op, Code: p.Code})
	}
	if m.cfg.MPSN == MPSNNone {
		ivs := q.ColumnIntervals(m.table)
		for i := range spec {
			if len(spec[i]) <= 1 {
				continue
			}
			iv := ivs[i]
			ndv := int32(m.table.Cols[i].NumDistinct())
			switch {
			case iv.Empty():
				spec[i] = spec[i][:1]
			case iv.Lo == iv.Hi:
				spec[i] = []ColPred{{Op: workload.OpEq, Code: iv.Lo}}
			case iv.Lo == 0:
				spec[i] = []ColPred{{Op: workload.OpLe, Code: iv.Hi}}
			case iv.Hi == ndv-1:
				spec[i] = []ColPred{{Op: workload.OpGe, Code: iv.Lo}}
			default:
				spec[i] = []ColPred{{Op: workload.OpGe, Code: iv.Lo}}
			}
		}
	}
	return spec
}

// EstimateCard estimates the query's cardinality with a single forward pass
// (Algorithm 3): encode predicates, one network inference, then per
// constrained column the softmax mass inside its predicate interval; the
// estimate is the product of those masses. No sampling, deterministic.
func (m *Model) EstimateCard(q workload.Query) float64 {
	card, _, _ := m.EstimateDetail(q)
	return card
}

// EstimateDetail additionally reports the time spent encoding versus in
// network inference + masking, the breakdown of Figure 6. Like training it
// runs the layer stack and shares the model's single-row scratch, so it is
// not safe for concurrent use; EstimateCardBatch is.
func (m *Model) EstimateDetail(q workload.Query) (card float64, encodeNS, inferNS int64) {
	t0 := time.Now()
	spec := m.SpecFromQuery(q)
	var x *tensor.Matrix
	if m.merged != nil && m.cfg.MPSN != MPSNNone {
		x = m.merged.encode(m, spec, m.xRow)
	} else {
		x = m.encodeBatchInto([]Spec{spec}, m.xRow)
	}
	encodeNS = time.Since(t0).Nanoseconds()
	t1 := time.Now()
	logits := m.net.Forward(x)
	n := m.table.NumCols()
	cols, ivs := m.constrained(q, make([]bool, n), make([]workload.Interval, n), nil, nil)
	sel := m.maskedProduct(logits.Row(0), cols, ivs)
	inferNS = time.Since(t1).Nanoseconds()
	return sel * float64(m.table.NumRows()), encodeNS, inferNS
}

// EstimateCardBatch estimates every query through a packed inference plan
// (made.Plan): all specs are encoded into a single input matrix, a
// sparsity-packed forward computes only the logit blocks each query's
// masked product will read, and the per-row masked products run in
// parallel. Planned results match EstimateCard up to floating-point
// summation order; they are bitwise deterministic and independent of batch
// composition (every kernel processes rows independently in a fixed order),
// so callers may batch opportunistically without changing estimates.
//
// EstimateCardBatch is safe for concurrent use: the compiled plan is
// immutable and shared, and each call works in its own pooled workspace, so
// steady-state batch estimation neither allocates matrices nor takes a lock
// (MPSN-mode encoders excepted, which serialize the encode step only). It
// must not race with training or SetPlanConfig; training invalidates the
// plan automatically.
func (m *Model) EstimateCardBatch(qs []workload.Query) []float64 {
	out := make([]float64, len(qs))
	if len(qs) == 0 {
		return out
	}
	plan := m.currentPlan()
	w := m.work.Get().(*batchWork)
	defer m.work.Put(w)
	specs := w.specs[:0]
	for _, q := range qs {
		specs = append(specs, m.SpecFromQuery(q))
	}
	w.specs = specs
	var x *tensor.Matrix
	switch {
	case m.cfg.MPSN == MPSNNone:
		x = m.encodeBatchInto(specs, &w.x)
	case m.merged != nil:
		// The fused MPSN encoder is single-row; run it per query into the
		// shared row scratch and gather rows into the batch matrix, keeping
		// the exact encode path EstimateCard uses.
		x = w.x.Resize(len(qs), m.net.In.Tot)
		m.encMu.Lock()
		for r, spec := range specs {
			m.merged.encode(m, spec, m.xRow)
			copy(x.Row(r), m.xRow.Row(0))
		}
		m.encMu.Unlock()
	default:
		m.encMu.Lock()
		x = m.encodeBatchInto(specs, &w.x)
		m.encMu.Unlock()
	}
	// The masked product reads only constrained columns' logit blocks, so
	// the plan computes exactly those per row.
	m.neededBlocks(w, qs)
	logits := plan.Forward(&w.plan, x, w.needed)
	rows := float64(m.table.NumRows())
	tensor.ParallelFor(len(qs), 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			out[r] = m.maskedProduct(logits.Row(r), w.needed[r], w.ivs[r]) * rows
		}
	})
	clear(w.specs) // drop the per-query predicate lists before pooling
	return out
}

// currentPlan returns the published plan, compiling and publishing one if it
// is stale. Concurrent callers may both compile; one plan wins and every
// caller runs the winner, so estimates never depend on which compiled.
func (m *Model) currentPlan() *made.Plan {
	if p := m.plan.Load(); p != nil {
		return p
	}
	p := made.NewPlan(m.net, m.planCfg)
	if !m.plan.CompareAndSwap(nil, p) {
		if won := m.plan.Load(); won != nil {
			return won
		}
	}
	return p
}

// neededBlocks fills w.needed (per query, the ascending constrained column
// indices — the only logit blocks the masked product will read) and w.ivs
// (each such column's code interval), reusing their storage.
func (m *Model) neededBlocks(w *batchWork, qs []workload.Query) {
	if cap(w.needed) < len(qs) {
		w.needed = append(w.needed[:cap(w.needed)], make([][]int32, len(qs)-cap(w.needed))...)
		w.ivs = append(w.ivs[:cap(w.ivs)], make([][]workload.Interval, len(qs)-cap(w.ivs))...)
	}
	w.needed, w.ivs = w.needed[:len(qs)], w.ivs[:len(qs)]
	for r, q := range qs {
		w.needed[r], w.ivs[r] = m.constrained(q, w.seen, w.colIv, w.needed[r][:0], w.ivs[r][:0])
	}
}

// constrained appends q's constrained columns, ascending, to cols and the
// intersection of each one's predicate intervals to ivs. seen and colIv are
// per-column scratch; seen must be all false and is left that way.
func (m *Model) constrained(q workload.Query, seen []bool, colIv []workload.Interval, cols []int32, ivs []workload.Interval) ([]int32, []workload.Interval) {
	for _, p := range q.Preds {
		ndv := m.table.Cols[p.Col].NumDistinct()
		iv := &colIv[p.Col]
		if !seen[p.Col] {
			seen[p.Col] = true
			*iv = workload.Interval{Lo: 0, Hi: int32(ndv) - 1}
		}
		lo, hi := p.Interval(ndv)
		iv.Lo, iv.Hi = max(iv.Lo, lo), min(iv.Hi, hi)
	}
	for i, c := range seen {
		if c {
			cols = append(cols, int32(i))
			ivs = append(ivs, colIv[i])
			seen[i] = false
		}
	}
	return cols, ivs
}

// InvalidatePlan discards the packed inference plan; the next batched
// estimate recompiles it from the current weights. Training does this
// automatically — call it manually only after mutating parameters directly.
func (m *Model) InvalidatePlan() { m.plan.Store(nil) }

// SetPlanConfig selects how the packed inference plan is compiled (e.g.
// int8 weight quantization). A change invalidates any existing plan. The
// setting is serving configuration, not model state: Save does not persist
// it, and the registry re-applies it from the manifest after every load.
// It must not race with inference.
func (m *Model) SetPlanConfig(cfg made.PlanConfig) {
	if cfg != m.planCfg {
		m.planCfg = cfg
		m.plan.Store(nil)
	}
}

// PlanConfig returns the current plan compilation setting.
func (m *Model) PlanConfig() made.PlanConfig { return m.planCfg }

// WarmPlan compiles the packed inference plan now (if stale) instead of on
// the first batched estimate, and reports its resident weight bytes. The
// registry warms plans at install time so the first estimate after an add,
// reload or swap does not pay compilation latency.
func (m *Model) WarmPlan() int {
	return m.currentPlan().WeightBytes()
}

// maskedProduct computes Π_i Σ_{v∈I_i} P(C_i = v | ·) over the constrained
// columns cols (ascending, with intervals ivs), the core of Algorithm 3.
func (m *Model) maskedProduct(logitRow []float32, cols []int32, ivs []workload.Interval) float64 {
	sel := 1.0
	for k, c := range cols {
		iv := ivs[k]
		if iv.Empty() {
			return 0
		}
		sel *= intervalMass(m.net.Out.Slice(logitRow, int(c)), iv.Lo, iv.Hi)
	}
	return sel
}

// intervalMass returns Σ_{lo≤v≤hi} softmax(seg)_v in one pass over seg and
// without a probability buffer: with m the segment max, the mass is
// in / (below + in + above), each term a vectorized Σ e^{seg_v - m} over
// the range below, inside and above the interval. The result is clamped to
// [1e-12, 1] so the product stays positive.
func intervalMass(seg []float32, lo, hi int32) float64 {
	mx := seg[0]
	for _, v := range seg[1:] {
		if v > mx {
			mx = v
		}
	}
	below := float64(tensor.ExpSum(seg[:lo], mx))
	in := float64(tensor.ExpSum(seg[lo:hi+1], mx))
	above := float64(tensor.ExpSum(seg[hi+1:], mx))
	f := in / (below + in + above)
	if f < 1e-12 {
		f = 1e-12
	}
	if f > 1 {
		f = 1
	}
	return f
}

// modelBlob is the gob wire format of a saved model.
type modelBlob struct {
	Cfg  Config
	NDVs []int
}

// Save writes the model configuration and parameters.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(modelBlob{Cfg: m.cfg, NDVs: m.table.NDVs()}); err != nil {
		return fmt.Errorf("core: save model header: %w", err)
	}
	return nn.SaveParams(w, m.params)
}

// Load reads a model saved by Save, rebuilding it against t (whose NDV
// profile must match the saved one).
func Load(r io.Reader, t *relation.Table) (*Model, error) {
	// The stream holds two consecutive gob messages (header, then params)
	// read by separate decoders. gob wraps a reader that is not an
	// io.ByteReader in its own bufio and reads ahead, which would misalign
	// the second decoder on plain files; one shared buffered reader keeps
	// both decoders on the same position.
	br := bufio.NewReader(r)
	var blob modelBlob
	if err := gob.NewDecoder(br).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: load model header: %w", err)
	}
	ndvs := t.NDVs()
	if len(ndvs) != len(blob.NDVs) {
		return nil, fmt.Errorf("core: model has %d columns, table has %d", len(blob.NDVs), len(ndvs))
	}
	for i := range ndvs {
		if ndvs[i] != blob.NDVs[i] {
			return nil, fmt.Errorf("core: column %d NDV mismatch: model %d, table %d", i, blob.NDVs[i], ndvs[i])
		}
	}
	m := NewModel(t, blob.Cfg)
	if err := nn.LoadParams(br, m.params); err != nil {
		return nil, err
	}
	return m, nil
}

package interp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lucidscript/internal/faults"
	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// Env is the mutable execution environment of one script run.
type Env struct {
	sources map[string]*frame.Frame
	vars    map[string]Value
	// dfOrder records the assignment order of DataFrame-valued variables so
	// the "output dataset" of a script can be recovered (see Result).
	dfOrder []string
	rsrc    *replaySource
	rng     *rand.Rand
	// limits is the resource governor; nil disables every check.
	limits *Limits
	// faults is the chaos-injection hook; nil (the production default)
	// makes each site a single pointer comparison.
	faults *faults.Injector
}

// replaySource is a rand.Source whose exact state can be reconstructed: it
// records the seed and how many values have been drawn, so a fork replays a
// fresh source to the same position. The Int63 stream is identical to using
// rand.NewSource(seed) directly, keeping historical run outputs stable. The
// underlying source is built and replayed on the first draw, so a run that
// never draws pays nothing for it.
type replaySource struct {
	seed int64
	n    int64
	src  rand.Source // nil until the first draw
}

func newReplaySource(seed int64) *replaySource {
	return &replaySource{seed: seed}
}

func (r *replaySource) Int63() int64 {
	if r.src == nil {
		r.src = rand.NewSource(r.seed)
		for i := int64(0); i < r.n; i++ {
			r.src.Int63()
		}
	}
	r.n++
	return r.src.Int63()
}

func (r *replaySource) Seed(seed int64) {
	r.seed, r.n, r.src = seed, 0, nil
}

func (r *replaySource) fork() *replaySource {
	return &replaySource{seed: r.seed, n: r.n}
}

// newEnv builds a fresh environment over already-sampled sources.
func newEnv(sources map[string]*frame.Frame, seed int64, limits *Limits, inj *faults.Injector) *Env {
	rsrc := newReplaySource(seed)
	return &Env{
		sources: sources,
		vars:    map[string]Value{},
		rsrc:    rsrc,
		rng:     rand.New(rsrc),
		limits:  limits,
		faults:  inj,
	}
}

// fork returns an independent copy of the environment: the variable map and
// dfOrder are copied, the RNG is replayed to the same position, and the
// bound values themselves are shared. Sharing is safe because statement
// execution is functional over frames and series — an operation never
// mutates a value created by an earlier statement (column and .loc
// assignment rebind their variable to a new frame instead of writing into
// the old one) — so two environments can hold the same *DF.
func (e *Env) fork() *Env {
	vars := make(map[string]Value, len(e.vars))
	for k, v := range e.vars {
		vars[k] = v
	}
	rsrc := e.rsrc.fork()
	return &Env{
		sources: e.sources,
		vars:    vars,
		dfOrder: append([]string(nil), e.dfOrder...),
		rsrc:    rsrc,
		rng:     rand.New(rsrc),
		limits:  e.limits,
		faults:  e.faults,
	}
}

// Result is what a completed script run produced: the output dataset
// (D_OUT in the paper) plus the conventional X/y variables when present.
type Result struct {
	// Main is the primary output frame: the value of `df` when bound,
	// otherwise the most recently assigned DataFrame variable.
	Main *frame.Frame
	// X is the value of `X` or `X_train` when the script separates features.
	X *frame.Frame
	// Y is the value of `y` or `y_train` when the script separates the target.
	Y *frame.Series
	// Env exposes the final variable bindings for inspection.
	Env *Env
}

// Options configures a run.
type Options struct {
	// Seed drives df.sample for deterministic runs. Defaults to 1.
	Seed int64
	// Limits is the per-run resource governor; nil disables it.
	Limits *Limits
	// Faults is the deterministic chaos-injection hook; nil (the
	// production default) makes every injection site a pointer check.
	Faults *faults.Injector
}

// SampleSources applies the input-sampling optimization (the paper's
// optimization 5): every frame larger than maxRows is down-sampled
// deterministically with the seed. The input map is returned unchanged
// when maxRows is not positive. Run and SessionCache execute over the
// sources they are given, so callers that want sampling (the search loop)
// sample once up front and pass the result.
func SampleSources(sources map[string]*frame.Frame, maxRows int, seed int64) map[string]*frame.Frame {
	if maxRows <= 0 {
		return sources
	}
	srcs := make(map[string]*frame.Frame, len(sources))
	for name, f := range sources {
		if f.NumRows() > maxRows {
			srcs[name] = f.Sample(maxRows, seed)
		} else {
			srcs[name] = f
		}
	}
	return srcs
}

// Run executes the script against the named data sources
// (file name → frame, standing in for the files read by pd.read_csv).
func Run(s *script.Script, sources map[string]*frame.Frame, opts Options) (*Result, error) {
	return RunContext(context.Background(), s, sources, opts)
}

// RunContext is Run with statement-granularity cancellation: the context is
// checked before every statement, so a deadline or cancellation aborts the
// run promptly with an error wrapping ctx.Err(). Statement failures —
// including contained panics (ErrStatementPanicked) and budget violations
// (ErrResourceExhausted) — surface as *StmtError carrying the line and
// statement text.
func RunContext(ctx context.Context, s *script.Script, sources map[string]*frame.Frame, opts Options) (*Result, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	env := newEnv(sources, opts.Seed, opts.Limits, opts.Faults)
	for i, st := range s.Stmts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interp: canceled before line %d (%s): %w", i+1, st.Source(), err)
		}
		if err := opts.Limits.checkStep(i); err != nil {
			return nil, &StmtError{Line: i + 1, Stmt: st.Source(), Err: err}
		}
		if err := env.execGoverned(faults.SiteInterpExec, st); err != nil {
			return nil, &StmtError{Line: i + 1, Stmt: st.Source(), Err: err}
		}
	}
	return env.result(), nil
}

// Get returns the final value of a variable.
func (e *Env) Get(name string) (Value, bool) {
	v, ok := e.vars[name]
	return v, ok
}

func (e *Env) result() *Result {
	r := &Result{Env: e}
	if v, ok := e.vars["df"].(*DF); ok {
		r.Main = v.F
	} else {
		for i := len(e.dfOrder) - 1; i >= 0; i-- {
			if v, ok := e.vars[e.dfOrder[i]].(*DF); ok {
				r.Main = v.F
				break
			}
		}
	}
	for _, n := range []string{"X", "X_train"} {
		if v, ok := e.vars[n].(*DF); ok {
			r.X = v.F
			break
		}
	}
	for _, n := range []string{"y", "y_train"} {
		if v, ok := e.vars[n].(*frame.Series); ok {
			r.Y = v
			break
		}
	}
	return r
}

func (e *Env) exec(st script.Stmt) error {
	switch s := st.(type) {
	case *script.ImportStmt:
		alias := s.Alias
		if alias == "" {
			alias = s.Module
		}
		e.vars[alias] = moduleVal{name: s.Module}
		return nil
	case *script.ExprStmt:
		_, err := e.eval(s.X)
		return err
	case *script.AssignStmt:
		return e.execAssign(s)
	default:
		return fmt.Errorf("unsupported statement type %T", st)
	}
}

func (e *Env) execAssign(s *script.AssignStmt) error {
	val, err := e.eval(s.Value)
	if err != nil {
		return err
	}
	if err := e.checkValue(val); err != nil {
		return err
	}
	switch tgt := s.Target.(type) {
	case *script.Ident:
		e.vars[tgt.Name] = val
		if _, ok := val.(*DF); ok {
			e.dfOrder = append(e.dfOrder, tgt.Name)
		}
		return nil
	case *script.IndexExpr:
		return e.assignIndexed(tgt, val)
	default:
		return fmt.Errorf("cannot assign to %s", s.Target.Source())
	}
}

// assignIndexed handles df["col"] = v and df.loc[labels, "col"] = v.
// Both are functional: the frame bound to the variable is never written
// into; the variable is rebound to a new frame that shares every untouched
// column. This keeps environments forkable for the prefix cache — a frame
// captured by a cached environment can never change under it.
func (e *Env) assignIndexed(tgt *script.IndexExpr, val Value) error {
	// df.loc[labels, "col"] = v
	if attr, ok := tgt.X.(*script.AttrExpr); ok && attr.Attr == "loc" {
		return e.assignLoc(attr, tgt.Index, val)
	}
	base, err := e.eval(tgt.X)
	if err != nil {
		return err
	}
	df, ok := base.(*DF)
	if !ok {
		return fmt.Errorf("cannot index-assign into %s", typeName(base))
	}
	idx, err := e.eval(tgt.Index)
	if err != nil {
		return err
	}
	col, ok := idx.(string)
	if !ok {
		return fmt.Errorf("column assignment needs a string column name, got %s", typeName(idx))
	}
	series, err := e.broadcast(val, col, df.F.NumRows())
	if err != nil {
		return err
	}
	nf, err := df.F.WithColumn(series)
	if err != nil {
		return err
	}
	if e.limits != nil {
		if err := e.limits.checkFrame(nf); err != nil {
			return err
		}
	}
	e.rebind(tgt.X, &DF{F: nf, Index: df.Index})
	return nil
}

// rebind points the variable the assignment targeted at the updated frame.
// A non-variable target (a temporary such as df.head(5)["x"] = 1) has no
// binding to update; the assignment then has no observable effect, exactly
// like pandas' chained-assignment behavior.
func (e *Env) rebind(target script.Expr, df *DF) {
	if id, ok := target.(*script.Ident); ok {
		e.vars[id.Name] = df
	}
}

func (e *Env) assignLoc(attr *script.AttrExpr, index script.Expr, val Value) error {
	base, err := e.eval(attr.X)
	if err != nil {
		return err
	}
	df, ok := base.(*DF)
	if !ok {
		return fmt.Errorf(".loc on %s", typeName(base))
	}
	sl, ok := index.(*script.SliceExpr)
	if !ok || len(sl.Parts) != 2 {
		return fmt.Errorf(".loc assignment needs [rows, column]")
	}
	rowsV, err := e.eval(sl.Parts[0])
	if err != nil {
		return err
	}
	colV, err := e.eval(sl.Parts[1])
	if err != nil {
		return err
	}
	col, ok := colV.(string)
	if !ok {
		return fmt.Errorf(".loc column must be a string, got %s", typeName(colV))
	}
	// Resolve target row positions from labels or a mask.
	var pos []int
	switch rv := rowsV.(type) {
	case indexVal:
		want := make(map[int]bool, len(rv.labels))
		for _, l := range rv.labels {
			want[l] = true
		}
		for p, l := range df.Index {
			if want[l] {
				pos = append(pos, p)
			}
		}
	case frame.Mask:
		if len(rv) != df.F.NumRows() {
			return fmt.Errorf(".loc mask length %d != rows %d", len(rv), df.F.NumRows())
		}
		for p, keep := range rv {
			if keep {
				pos = append(pos, p)
			}
		}
	default:
		return fmt.Errorf(".loc rows must be an index or mask, got %s", typeName(rowsV))
	}
	target, err := df.F.Column(col)
	if err != nil {
		// pandas creates the column, null elsewhere.
		target = frame.NewEmptySeries(col, frame.Float, df.F.NumRows())
		if _, ok := val.(string); ok {
			target = frame.NewEmptySeries(col, frame.String, df.F.NumRows())
		}
	}
	// Build the updated column without writing into the bound frame (the
	// frame may be shared with forked environments), then rebind.
	var conv *frame.Series
	switch v := val.(type) {
	case float64:
		if target.Kind() == frame.String {
			conv = target.Clone()
			for _, p := range pos {
				conv.SetString(p, trimFloat(v))
			}
			break
		}
		if target.Kind() != frame.Float {
			conv = target.AsType(frame.Float)
		} else {
			conv = target.Clone()
		}
		for _, p := range pos {
			conv.SetFloat(p, v)
		}
	case string:
		if target.Kind() != frame.String {
			conv = target.AsType(frame.String)
		} else {
			conv = target.Clone()
		}
		for _, p := range pos {
			conv.SetString(p, v)
		}
	default:
		return fmt.Errorf(".loc assignment of %s not supported", typeName(val))
	}
	nf, err := df.F.WithColumn(conv)
	if err != nil {
		return err
	}
	if e.limits != nil {
		if err := e.limits.checkFrame(nf); err != nil {
			return err
		}
	}
	e.rebind(attr.X, &DF{F: nf, Index: df.Index})
	return nil
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// broadcast turns an assigned value into a column series of length n.
func (e *Env) broadcast(val Value, name string, n int) (*frame.Series, error) {
	switch v := val.(type) {
	case *frame.Series:
		if v.Len() != n {
			return nil, fmt.Errorf("column %q length %d != rows %d", name, v.Len(), n)
		}
		return v.Rename(name), nil
	case frame.Mask:
		bs := make([]bool, len(v))
		copy(bs, v)
		return frame.NewBoolSeries(name, bs), nil
	case float64:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = v
		}
		return frame.NewFloatSeries(name, vals), nil
	case string:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = v
		}
		return frame.NewStringSeries(name, vals), nil
	case bool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = v
		}
		return frame.NewBoolSeries(name, vals), nil
	default:
		return nil, fmt.Errorf("cannot assign %s to column %q", typeName(val), name)
	}
}

func (e *Env) eval(expr script.Expr) (Value, error) {
	switch x := expr.(type) {
	case *script.Ident:
		v, ok := e.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("name %q is not defined", x.Name)
		}
		return v, nil
	case *script.NumberLit:
		return x.Value, nil
	case *script.StringLit:
		return x.Value, nil
	case *script.BoolLit:
		return x.Value, nil
	case *script.NoneLit:
		return nil, nil
	case *script.ListExpr:
		lv := listVal{}
		for _, el := range x.Elems {
			v, err := e.eval(el)
			if err != nil {
				return nil, err
			}
			lv.elems = append(lv.elems, v)
		}
		return lv, nil
	case *script.DictExpr:
		d := dictVal{m: map[string]string{}}
		for i := range x.Keys {
			k, err := e.eval(x.Keys[i])
			if err != nil {
				return nil, err
			}
			v, err := e.eval(x.Values[i])
			if err != nil {
				return nil, err
			}
			d.m[scalarString(k)] = scalarString(v)
		}
		return d, nil
	case *script.AttrExpr:
		return e.evalAttr(x)
	case *script.CallExpr:
		return e.evalCall(x)
	case *script.IndexExpr:
		return e.evalIndex(x)
	case *script.BinaryExpr:
		return e.evalBinary(x)
	case *script.UnaryExpr:
		return e.evalUnary(x)
	case *script.SliceExpr:
		return nil, fmt.Errorf("comma index only valid inside .loc")
	default:
		return nil, fmt.Errorf("unsupported expression %s", expr.Source())
	}
}

func scalarString(v Value) string {
	switch s := v.(type) {
	case string:
		return s
	case float64:
		return trimFloat(s)
	case bool:
		if s {
			return "True"
		}
		return "False"
	default:
		return fmt.Sprintf("%v", v)
	}
}

func (e *Env) evalAttr(x *script.AttrExpr) (Value, error) {
	recv, err := e.eval(x.X)
	if err != nil {
		return nil, err
	}
	switch r := recv.(type) {
	case *DF:
		switch x.Attr {
		case "index":
			return indexVal{labels: append([]int(nil), r.Index...)}, nil
		case "columns":
			lv := listVal{}
			for _, n := range r.F.ColumnNames() {
				lv.elems = append(lv.elems, n)
			}
			return lv, nil
		case "shape":
			return listVal{elems: []Value{float64(r.F.NumRows()), float64(r.F.NumCols())}}, nil
		case "loc":
			// Bare read access like df.loc[mask] is handled at index time.
			return boundMethod{recv: r, name: "loc"}, nil
		}
		return boundMethod{recv: r, name: x.Attr}, nil
	case *frame.Series:
		switch x.Attr {
		case "str":
			return strVal{s: r}, nil
		case "dt":
			return dtVal{s: r}, nil
		case "values":
			return r, nil
		}
		return boundMethod{recv: r, name: x.Attr}, nil
	case dtVal:
		// pandas exposes .dt fields as attributes (df["d"].dt.month).
		return e.callDt(r, x.Attr, nil)
	case moduleVal, strVal, groupVal, groupColVal:
		return boundMethod{recv: recv, name: x.Attr}, nil
	default:
		return nil, fmt.Errorf("%s has no attribute %q", typeName(recv), x.Attr)
	}
}

func (e *Env) evalIndex(x *script.IndexExpr) (Value, error) {
	recv, err := e.eval(x.X)
	if err != nil {
		return nil, err
	}
	// df.loc[mask] read access.
	if bm, ok := recv.(boundMethod); ok && bm.name == "loc" {
		df := bm.recv.(*DF)
		idx, err := e.eval(x.Index)
		if err != nil {
			return nil, err
		}
		if m, ok := idx.(frame.Mask); ok {
			return df.filter(m)
		}
		return nil, fmt.Errorf(".loc read supports only masks, got %s", typeName(idx))
	}
	idxV, err := e.eval(x.Index)
	if err != nil {
		return nil, err
	}
	switch r := recv.(type) {
	case *DF:
		switch idx := idxV.(type) {
		case string:
			s, err := r.F.Column(idx)
			if err != nil {
				return nil, err
			}
			return s, nil
		case listVal:
			names := make([]string, len(idx.elems))
			for i, el := range idx.elems {
				n, ok := el.(string)
				if !ok {
					return nil, fmt.Errorf("column list must contain strings")
				}
				names[i] = n
			}
			f, err := r.F.Select(names...)
			if err != nil {
				return nil, err
			}
			return &DF{F: f, Index: append([]int(nil), r.Index...)}, nil
		case frame.Mask:
			return r.filter(idx)
		default:
			return nil, fmt.Errorf("cannot index DataFrame with %s", typeName(idxV))
		}
	case *frame.Series:
		if m, ok := idxV.(frame.Mask); ok {
			if len(m) != r.Len() {
				return nil, fmt.Errorf("mask length %d != series length %d", len(m), r.Len())
			}
			pos := make([]int, 0, m.Count())
			for i, keep := range m {
				if keep {
					pos = append(pos, i)
				}
			}
			return r.Gather(pos), nil
		}
		return nil, fmt.Errorf("cannot index Series with %s", typeName(idxV))
	case groupVal:
		col, ok := idxV.(string)
		if !ok {
			return nil, fmt.Errorf("groupby column selector must be a string")
		}
		return groupColVal{df: r.df, key: r.key, col: col}, nil
	default:
		return nil, fmt.Errorf("cannot index %s", typeName(recv))
	}
}

func (e *Env) evalUnary(x *script.UnaryExpr) (Value, error) {
	v, err := e.eval(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "~":
		m, ok := v.(frame.Mask)
		if !ok {
			return nil, fmt.Errorf("~ needs a mask, got %s", typeName(v))
		}
		if ownedMask(x.X) {
			return m.NotInPlace(), nil
		}
		return m.Not(), nil
	case "-":
		switch n := v.(type) {
		case float64:
			return -n, nil
		case *frame.Series:
			return n.ArithScalar(frame.Mul, -1), nil
		}
		return nil, fmt.Errorf("- needs a number or Series, got %s", typeName(v))
	}
	return nil, fmt.Errorf("unsupported unary operator %q", x.Op)
}

// ownedMask reports whether a mask produced by evaluating expr is owned by
// the evaluator and may be combined in place. Only an identifier can yield
// a mask that something else still holds (the variable binding); every
// other mask-producing expression — a comparison, a ~, an isnull() call —
// allocates a fresh mask with no other reference. This keeps chained
// filters like df[(df.a > 1) & (df.b < 2) & ~df.c.isnull()] from paying
// one allocation per combinator without ever mutating a bound variable.
func ownedMask(expr script.Expr) bool {
	_, isIdent := expr.(*script.Ident)
	return !isIdent
}

var cmpFromString = map[string]frame.CmpOp{
	"<": frame.Lt, "<=": frame.Le, ">": frame.Gt, ">=": frame.Ge, "==": frame.Eq, "!=": frame.Ne,
}

var arithFromString = map[string]frame.ArithOp{
	"+": frame.Add, "-": frame.Sub, "*": frame.Mul, "/": frame.Div,
}

func (e *Env) evalBinary(x *script.BinaryExpr) (Value, error) {
	l, err := e.eval(x.X)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "&", "|":
		lm, lok := l.(frame.Mask)
		rm, rok := r.(frame.Mask)
		if !lok || !rok {
			return nil, fmt.Errorf("%s needs masks, got %s and %s", x.Op, typeName(l), typeName(r))
		}
		if len(lm) != len(rm) {
			return nil, fmt.Errorf("mask length mismatch %d vs %d", len(lm), len(rm))
		}
		if ownedMask(x.X) {
			if x.Op == "&" {
				return lm.AndInPlace(rm), nil
			}
			return lm.OrInPlace(rm), nil
		}
		if x.Op == "&" {
			return lm.And(rm), nil
		}
		return lm.Or(rm), nil
	}
	if op, ok := cmpFromString[x.Op]; ok {
		return e.compare(op, l, r)
	}
	if op, ok := arithFromString[x.Op]; ok {
		return e.arith(op, l, r)
	}
	return nil, fmt.Errorf("unsupported operator %q", x.Op)
}

func (e *Env) compare(op frame.CmpOp, l, r Value) (Value, error) {
	switch lv := l.(type) {
	case *frame.Series:
		switch rv := r.(type) {
		case float64, string, bool:
			return lv.Compare(op, rv)
		case *frame.Series:
			return lv.CompareSeries(op, rv)
		}
	case float64:
		if rv, ok := r.(*frame.Series); ok {
			return rv.Compare(flipCmp(op), lv)
		}
		if rv, ok := r.(float64); ok {
			return frame.Cmp(op, lv, rv), nil
		}
	case string:
		if rv, ok := r.(string); ok {
			return frame.Cmp(op, lv, rv), nil
		}
	}
	return nil, fmt.Errorf("cannot compare %s and %s", typeName(l), typeName(r))
}

func flipCmp(op frame.CmpOp) frame.CmpOp {
	switch op {
	case frame.Lt:
		return frame.Gt
	case frame.Le:
		return frame.Ge
	case frame.Gt:
		return frame.Lt
	case frame.Ge:
		return frame.Le
	}
	return op
}

func (e *Env) arith(op frame.ArithOp, l, r Value) (Value, error) {
	switch lv := l.(type) {
	case *frame.Series:
		switch rv := r.(type) {
		case *frame.Series:
			return lv.Arith(op, rv)
		case float64:
			return lv.ArithScalar(op, rv), nil
		}
	case float64:
		switch rv := r.(type) {
		case float64:
			switch op {
			case frame.Add:
				return lv + rv, nil
			case frame.Sub:
				return lv - rv, nil
			case frame.Mul:
				return lv * rv, nil
			case frame.Div:
				if rv == 0 {
					return nil, fmt.Errorf("division by zero")
				}
				return lv / rv, nil
			}
		case *frame.Series:
			switch op {
			case frame.Add:
				return rv.ArithScalar(frame.Add, lv), nil
			case frame.Mul:
				return rv.ArithScalar(frame.Mul, lv), nil
			case frame.Sub:
				return rv.ArithScalar(frame.Mul, -1).ArithScalar(frame.Add, lv), nil
			case frame.Div:
				out := make([]float64, rv.Len())
				for i := range out {
					d := rv.Float(i)
					if d == 0 || math.IsNaN(d) {
						out[i] = math.NaN()
						continue
					}
					out[i] = lv / d
				}
				return frame.NewFloatSeries(rv.Name(), out), nil
			}
		}
	case string:
		if rv, ok := r.(string); ok && op == frame.Add {
			return lv + rv, nil
		}
	}
	return nil, fmt.Errorf("cannot apply %v to %s and %s", op, typeName(l), typeName(r))
}

// sortedKeys is a small helper for deterministic iteration.
func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

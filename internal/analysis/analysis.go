// Package analysis implements qoslint, the project's static analyzer
// for Cycles-arithmetic, concurrency and hot-path purity. It is built
// on go/parser and go/types only — no module dependencies — so it runs
// in any sandbox that has a Go toolchain.
//
// Ten checks:
//
//   - cyclesarith: raw +, -, * (including +=, -=, *=, ++ and --) where
//     an operand's type resolves to a defined integer type named Cycles,
//     outside the file that declares the type (where the saturating
//     helpers live). Constant-folded expressions are exempt: the
//     compiler already rejects constant overflow.
//   - infguard: ordered comparisons (<, <=, >, >=) whose operands derive
//     from raw (unsaturated) Cycles arithmetic reachable from an Inf
//     source; on wraparound such comparisons silently invert.
//   - mixerlock: an intra-package call-graph check that no function
//     calls, directly or transitively through same-package helpers, a
//     function that acquires any sync.Mutex/RWMutex while the caller
//     holds any mutex — the self-deadlock the shared-budget mixer's
//     comment discipline ("callers hold b.mu") used to be the only
//     guard against — and that no function re-acquires a mutex it
//     holds: a double Lock, a recursive RLock, or an RLock while
//     write-held.
//   - slabaccess: any use of the position-major slack slab fields
//     (avSlack, wcSlack, minSlack) outside the file that declares them;
//     everything else must go through the SlackAvAt / SlackWcAt /
//     CombinedSlackAt accessors so the slab layout stays an
//     implementation detail.
//   - atomicsafety: a variable ever accessed through sync/atomic — or
//     declared with an atomic.* value type — must never be read or
//     written plainly anywhere in the module; the mixed (racy) access
//     is reported at the plain-access site.
//   - lockorder: a module-wide lock-acquisition-order graph over
//     distinct mutex identities; cycles (the ABBA deadlock) and
//     RLock→Lock upgrades on the same mutex are reported.
//   - hotalloc: functions marked //qos:hotpath are decision-path roots;
//     every allocating construct reachable from a root through the
//     intra-module call graph is reported, unless justified with
//     //qos:alloc-ok <reason>.
//   - blockunderlock: no potentially-blocking operation — channel
//     send/receive, select without default, sync.WaitGroup.Wait,
//     Cond.Wait on a condition guarded by a different mutex, time.Sleep,
//     network I/O, or a call in the transitive mayBlock closure — while
//     a sync.Mutex/RWMutex is held, with read and write holds named
//     separately.
//   - ctxloop: in any function taking a context.Context, a loop that
//     contains a blocking wait or backoff retry must consult the
//     context (ctx.Err() call or <-ctx.Done() select case) each
//     iteration.
//   - goroutinelife: every go statement must carry a provable
//     termination signal — joined via WaitGroup.Done, bounded loops
//     only, or every unbounded loop selects on ctx.Done()/a close-only
//     channel — unless justified with //qos:goroutine-ok <reason>.
//
// mixerlock, lockorder and blockunderlock are three visitors of one
// held-lock walk (lock.go): a single flow-sensitive traversal per
// function that tracks the held mutexes and reports each acquire,
// blocking construct and call-under-lock to every visitor. They differ
// only in scope — mixerlock follows calls within the caller's package,
// the other two across the module — and in what they report. Every
// call-graph check shares one function index, one callee resolver and
// one fixpoint helper (callgraph.go), built once per Analyze.
//
// The arithmetic checks (cyclesarith, infguard) honour the annotation
//
//	//qos:overflow-ok <reason>
//
// hotalloc honours
//
//	//qos:alloc-ok <reason>
//
// and goroutinelife honours
//
//	//qos:goroutine-ok <reason>
//
// on the finding's line or the line directly above it. The reason is
// mandatory: a bare annotation is itself reported. An annotation binds
// to exactly one line — its own line when a suppressible finding sits
// there, otherwise the line below — so one annotation can never blanket
// two distinct statements. An annotation that suppresses nothing (a
// stale suppression surviving a refactor) is itself a finding. The
// architectural and liveness checks (mixerlock, slabaccess,
// atomicsafety, lockorder, blockunderlock, ctxloop) are not
// suppressible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Check names, as they appear in diagnostics.
const (
	CheckCyclesArith    = "cyclesarith"
	CheckInfGuard       = "infguard"
	CheckMixerLock      = "mixerlock"
	CheckSlabAccess     = "slabaccess"
	CheckAtomicSafety   = "atomicsafety"
	CheckLockOrder      = "lockorder"
	CheckHotAlloc       = "hotalloc"
	CheckBlockUnderLock = "blockunderlock"
	CheckCtxLoop        = "ctxloop"
	CheckGoroutineLife  = "goroutinelife"
	CheckAnnotation     = "annotation"
)

// CheckNames lists every check name a Diagnostic can carry, in the
// order the documentation presents them. The CLI's -check flag
// validates against this list.
var CheckNames = []string{
	CheckCyclesArith,
	CheckInfGuard,
	CheckMixerLock,
	CheckSlabAccess,
	CheckAtomicSafety,
	CheckLockOrder,
	CheckHotAlloc,
	CheckBlockUnderLock,
	CheckCtxLoop,
	CheckGoroutineLife,
	CheckAnnotation,
}

// CheckDocs maps each check name to a one-line description, in the
// register the CLI's -list flag prints for CI logs and new
// contributors. Kept to one sentence per check; the package doc above
// carries the full rationale.
var CheckDocs = map[string]string{
	CheckCyclesArith:    "raw +/-/* on the saturating Cycles type outside its defining file",
	CheckInfGuard:       "ordered comparisons on unsaturated Cycles arithmetic reachable from an Inf source",
	CheckMixerLock:      "intra-package call into a mutex-acquiring helper while a mutex is already held",
	CheckSlabAccess:     "use of the position-major slack slab fields outside their defining file",
	CheckAtomicSafety:   "plain read or write of a variable elsewhere accessed through sync/atomic",
	CheckLockOrder:      "module-wide lock-order cycles (ABBA) and RLock-to-Lock upgrades",
	CheckHotAlloc:       "allocation reachable from a //qos:hotpath root without //qos:alloc-ok justification",
	CheckBlockUnderLock: "potentially-blocking operation (channel op, select, Wait, Sleep, net I/O) while a mutex is held",
	CheckCtxLoop:        "loop in a context-taking function that waits without consulting ctx.Err()/ctx.Done()",
	CheckGoroutineLife:  "go statement with no provable termination signal and no //qos:goroutine-ok justification",
	CheckAnnotation:     "malformed (reasonless) or stale //qos: suppression annotations",
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// finding is a diagnostic plus the annotation kind that may suppress it
// ("" for the architectural checks, which are not suppressible).
type finding struct {
	d        Diagnostic
	suppress string // annOverflowOK, annAllocOK, annGoroutineOK, or ""
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if ds[i].Check != ds[j].Check {
			return ds[i].Check < ds[j].Check
		}
		return ds[i].Message < ds[j].Message
	})
}

// Analyze runs every check over the loaded packages and returns the
// findings sorted by position. The per-package checks (cyclesarith,
// infguard, slabaccess) see one package at a time; the call-graph
// checks share one function index over the whole package set, so
// cross-package mixed access, lock-order cycles, hot-path reachability
// and may-block call chains are visible (mixerlock alone keeps to the
// caller's package).
func Analyze(pkgs []*Package) []Diagnostic {
	ann := collectAnnotations(pkgs)
	var raw []finding
	for _, p := range pkgs {
		raw = append(raw, checkCyclesArith(p)...)
		raw = append(raw, checkInfGuard(p)...)
		raw = append(raw, checkSlabAccess(p)...)
	}
	ix := buildIndex(pkgs)
	raw = append(raw, checkAtomicSafety(pkgs)...)
	raw = append(raw, checkLocks(ix)...)
	raw = append(raw, checkHotAlloc(ix, ann)...)
	raw = append(raw, checkCtxLoop(ix)...)
	raw = append(raw, checkGoroutineLife(ix)...)
	ds := ann.resolve(raw)
	sortDiagnostics(ds)
	return ds
}

// Annotation kinds (the suffix after the shared //qos: marker).
const (
	annOverflowOK  = "overflow-ok"
	annAllocOK     = "alloc-ok"
	annGoroutineOK = "goroutine-ok"
)

// annotationReason documents, per kind, what the mandatory reason must
// argue.
var annotationReason = map[string]string{
	annOverflowOK:  "the proven bound or why overflow is impossible",
	annAllocOK:     "why the allocation is acceptable or unreachable on the decision path",
	annGoroutineOK: "why the goroutine's lifetime is acceptable without a termination signal",
}

// annotation is one well-formed //qos:overflow-ok or //qos:alloc-ok
// comment.
type annotation struct {
	pos  token.Position
	kind string
	// used is set when the annotation suppressed at least one finding
	// or justified a hot-path call edge; stale annotations are reported.
	used bool
	// edgeLine, when non-zero, is the line of the call edge the
	// annotation justified; the annotation is pinned to that line (it
	// still suppresses findings there — a pruned call can itself box or
	// pack variadics — but never drifts further).
	edgeLine int
}

// annotations indexes the module's suppression comments by file and
// line (at most one per line; a later annotation on the same line wins)
// and carries the diagnostics for malformed ones.
type annotations struct {
	at    map[string]map[int]*annotation // filename -> line -> annotation
	diags []Diagnostic                   // malformed annotations
}

func collectAnnotations(pkgs []*Package) *annotations {
	a := &annotations{at: make(map[string]map[int]*annotation)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "qos:")
					if !ok {
						continue
					}
					var kind string
					for _, k := range []string{annOverflowOK, annAllocOK, annGoroutineOK} {
						if strings.HasPrefix(rest, k) {
							kind = k
							break
						}
					}
					if kind == "" {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					reason := strings.TrimSpace(strings.TrimPrefix(rest, kind))
					if reason == "" {
						a.diags = append(a.diags, Diagnostic{
							Pos:     pos,
							Check:   CheckAnnotation,
							Message: fmt.Sprintf("//qos:%s requires a reason (%s)", kind, annotationReason[kind]),
						})
						continue
					}
					m := a.at[pos.Filename]
					if m == nil {
						m = make(map[int]*annotation)
						a.at[pos.Filename] = m
					}
					m[pos.Line] = &annotation{pos: pos, kind: kind}
				}
			}
		}
	}
	return a
}

// allocOKAt returns the alloc-ok annotation sitting exactly on
// file:line, or nil. hotalloc consults it while walking the call
// graph: a justified edge is not descended into, so one reasoned
// annotation at a call site covers the callee's whole subtree.
func (a *annotations) allocOKAt(file string, line int) *annotation {
	if m := a.at[file]; m != nil {
		if ann := m[line]; ann != nil && ann.kind == annAllocOK {
			return ann
		}
	}
	return nil
}

// resolve applies the suppression annotations to the raw findings and
// returns the surviving diagnostics plus the annotation hygiene ones.
//
// Binding is one-line-per-annotation: an annotation on line L binds to
// L when a finding of its kind sits on L (a trailing comment), and to
// L+1 otherwise (a comment line of its own above the statement). A
// trailing annotation therefore no longer leaks onto the next line. An
// annotation that ends up suppressing nothing — and justified no
// hot-path call edge — is reported as stale.
func (a *annotations) resolve(raw []finding) []Diagnostic {
	// Index the suppressible findings by file/line/kind.
	type key struct {
		file string
		line int
		kind string
	}
	have := make(map[key]bool)
	for _, f := range raw {
		if f.suppress != "" {
			have[key{f.d.Pos.Filename, f.d.Pos.Line, f.suppress}] = true
		}
	}
	// Bind each annotation to exactly one line; edge-justifying
	// annotations are pinned to their call line.
	bound := make(map[key]*annotation)
	for file, lines := range a.at {
		for line, ann := range lines {
			target := line
			if ann.edgeLine != 0 {
				target = ann.edgeLine
			} else if !have[key{file, line, ann.kind}] {
				target = line + 1
			}
			bound[key{file, target, ann.kind}] = ann
		}
	}
	out := append([]Diagnostic(nil), a.diags...)
	for _, f := range raw {
		if f.suppress != "" {
			if ann := bound[key{f.d.Pos.Filename, f.d.Pos.Line, f.suppress}]; ann != nil {
				ann.used = true
				continue
			}
		}
		out = append(out, f.d)
	}
	for _, lines := range a.at {
		for _, ann := range lines {
			if !ann.used {
				out = append(out, Diagnostic{
					Pos:     ann.pos,
					Check:   CheckAnnotation,
					Message: fmt.Sprintf("//qos:%s suppresses nothing; remove the stale annotation", ann.kind),
				})
			}
		}
	}
	return out
}

// nodeLine returns the position of n's first token.
func nodeLine(fset *token.FileSet, n ast.Node) token.Position {
	return fset.Position(n.Pos())
}

// inspectWithStack walks n like ast.Inspect but hands the visitor the
// stack of ancestor nodes (outermost first, not including n itself).
// The checks that need syntactic context — is this selector the operand
// of &, is this defer inside a loop — use it instead of re-deriving
// parents.
func inspectWithStack(n ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := visit(m, stack)
		if ok {
			stack = append(stack, m)
		}
		return ok
	})
}

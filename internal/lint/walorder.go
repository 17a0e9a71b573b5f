// The walorder analyzer: the write-ahead rule itself, checked statically and
// interprocedurally.  Every path that installs to the stable store
// (Store.WriteBatch) must be dominated by a Log.Force/ForceThrough covering
// the installed records' LSNs — directly, through a forcing callee, or by the
// caller having forced before the call.
//
// The check rides the lock walker's must-analysis: a pseudo-key ("forced#")
// is acquired at every force call (direct, or a callee whose summary says it
// forces on some path) and never released, so branch intersection yields
// "forced on every path reaching this point".  An install without the
// pseudo-key held raises an *obligation* on its enclosing function:
//
//   - obligations propagate silently through unexported functions — a private
//     helper like writeBatchRetry is an implementation detail whose contract
//     is whatever its callers make of it;
//   - at an exported obligation-carrying function (MirrorInstall: "the caller
//     must already have forced"), every call site that has not forced is
//     reported — the site, not the helper, is where the protocol breaks;
//   - a function with no callers at all is reported at the install itself:
//     no call path can discharge the obligation.
//
// Call sites and function bodies in _test.go files are exempt (tests
// deliberately exercise arbitrary force states), as is the stable package
// itself (the layer below the protocol).
package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

var WalOrder = &Analyzer{
	Name: "walorder",
	Doc: "verifies every path installing to the stable store is dominated by a " +
		"Force/ForceThrough covering it (write-ahead rule), interprocedurally " +
		"across core, cache, recovery, ship, and wal",
	Match: matchSuffix(
		"internal/core", "internal/cache", "internal/recovery",
		"internal/ship", "internal/wal",
	),
	Run: runWalOrder,
}

const forcedKey = "forced" + pseudoKeyMark

// walFinding is one report, attributed to the package that must emit it so
// per-package suppression directives apply.
type walFinding struct {
	pos token.Pos
	pkg *Package
	msg string
}

func runWalOrder(p *Pass) error {
	prog := p.program()
	for _, f := range prog.walorderFindings() {
		if f.pkg == p.pkg() {
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// walFuncFacts is the per-function result of the forced-state walk.
type walFuncFacts struct {
	// unforcedInstalls are Store.WriteBatch calls not dominated by a force.
	unforcedInstalls []*ast.CallExpr
	// siteForced records, for every resolved call site, whether a force
	// dominates it.
	siteForced map[*ast.CallExpr]bool
}

// walorderFindings computes the analyzer's findings for the whole program
// once; each package's pass then emits its own slice.
func (p *Program) walorderFindings() []walFinding {
	if p.walDone {
		return p.walFindings
	}
	p.walDone = true
	p.Resolve()

	facts := make(map[FuncKey]*walFuncFacts)
	for _, fi := range p.sortedFuncs() {
		if walExempt(fi) {
			continue
		}
		facts[fi.Key] = walWalk(p, fi)
	}

	// Seed obligations from unforced installs, then propagate toward callers
	// until an exported boundary (report unforced sites) or a forced site
	// (discharged).
	type obligation struct {
		fn     *FuncInfo
		origin *ast.CallExpr // the install that started the chain
		via    string        // helper chain description, innermost first
	}
	var work []obligation
	for _, fi := range p.sortedFuncs() {
		ff := facts[fi.Key]
		if ff == nil {
			continue
		}
		for _, call := range ff.unforcedInstalls {
			work = append(work, obligation{fn: fi, origin: call, via: fi.Key.Short()})
		}
	}

	carried := make(map[FuncKey]bool) // propagation visit guard (per function)
	for len(work) > 0 {
		ob := work[0]
		work = work[1:]

		callers := p.CallersOf[ob.fn.Key]
		if len(callers) == 0 {
			p.walFindings = append(p.walFindings, walFinding{
				pos: ob.origin.Pos(),
				pkg: ob.fn.Pkg,
				msg: ob.via + " reaches Store.WriteBatch with no covering Force/ForceThrough " +
					"on any call path (write-ahead rule: the log must be durable before the install)",
			})
			continue
		}
		for _, caller := range callers {
			cf := facts[caller.Key]
			if cf == nil {
				continue // test or exempt caller: not judged
			}
			for _, cs := range caller.Calls {
				if cs.Callee != ob.fn.Key {
					continue
				}
				if cf.siteForced[cs.Call] {
					continue // discharged: the caller forced first
				}
				if exportedKey(ob.fn.Key) {
					p.walFindings = append(p.walFindings, walFinding{
						pos: cs.Call.Pos(),
						pkg: caller.Pkg,
						msg: "call to " + ob.fn.Key.Short() + " installs to the stable store (via " +
							ob.via + ") without a Force/ForceThrough covering it on this path " +
							"(write-ahead rule); force the log first or document why the records " +
							"are already durable",
					})
					continue
				}
				// Unexported: the caller inherits the obligation.
				if !carried[caller.Key] {
					carried[caller.Key] = true
					work = append(work, obligation{
						fn:     caller,
						origin: ob.origin,
						via:    caller.Key.Short() + " -> " + ob.via,
					})
				}
			}
		}
	}
	return p.walFindings
}

// walWalk runs the forced-state walk over one function body.
func walWalk(p *Program, fi *FuncInfo) *walFuncFacts {
	ff := &walFuncFacts{siteForced: make(map[*ast.CallExpr]bool)}
	info := fi.Pkg.Info
	lw := newLockWalker(p, fi)
	lw.pseudoAcquire = func(call *ast.CallExpr) []string {
		if isForceCall(info, call) {
			return []string{forcedKey}
		}
		if callee := p.Lookup(fi.Pkg, call); callee != nil && callee.Sum.Forces {
			return []string{forcedKey}
		}
		return nil
	}
	lw.onCall = func(call *ast.CallExpr, st *lwState, deferred bool) {
		forced := st.held[forcedKey].count > 0
		ff.siteForced[call] = forced
		if _, ok := isInstallCall(info, call); ok && !forced {
			ff.unforcedInstalls = append(ff.unforcedInstalls, call)
		}
	}
	lw.walk()
	return ff
}

// walExempt excludes test files and the stable package (the storage layer
// below the protocol) from the walorder analysis.
func walExempt(fi *FuncInfo) bool {
	if strings.HasSuffix(fi.Pkg.Pkg.Path(), "internal/stable") {
		return true
	}
	file := fi.Pkg.Fset.Position(fi.Decl.Pos()).Filename
	return strings.HasSuffix(file, "_test.go")
}

// exportedKey reports whether the function a key names is exported.
func exportedKey(k FuncKey) bool {
	short := k.Short()
	if i := strings.LastIndex(short, ")."); i >= 0 {
		short = short[i+2:]
	}
	if short == "" {
		return false
	}
	c := short[0]
	return c >= 'A' && c <= 'Z'
}

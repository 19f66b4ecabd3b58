package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc polices the allocation budget of the annotation hot path. The
// hot set is not a hand-kept list: it is computed per run as everything
// transitively reachable — over the module-wide call graph, callback edges
// included — from the inference and streaming roots:
//
//	(*Model).annotate               the per-file annotation pass
//	(*Forest).PredictProba          \
//	(*Tree).PredictProba            | per-row tree inference
//	(*Compiled).PredictProbaMatrix  |  (flattened matrix kernel and its
//	(*Compiled).predictRows         /   serial body, reached via an interface)
//	(*Scanner).Scan            the per-line streaming ingest step
//	(*Splitter).Write/Next     the per-line incremental tokenizer
//	DetectBest                 dialect scoring, once per candidate
//
// (matched by receiver/function name and package name, so the fixture
// module exercises the same rule). Inside hot functions four allocation
// shapes are flagged:
//
//   - fmt.Sprintf: formatting allocates its result and boxes every operand;
//     hot-path strings should be built with append/copy or precomputed;
//   - string⇄[]byte conversions inside loops: each one copies the payload;
//     per-row loops should pick one representation and keep it;
//   - append to a slice declared without capacity in the same function,
//     inside a loop: the growth doublings dominate small-row profiles;
//     preallocate with make(T, 0, n);
//   - function literals capturing outer variables inside loops: each
//     iteration allocates a closure; hoist the literal or pass state as
//     arguments.
//
// A deliberate allocation (cold error path, once-per-file setup) is kept
// with //lint:ignore hotalloc <why the allocation is off the per-row path>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags Sprintf, loop string<->[]byte conversions, un-preallocated " +
		"append, and loop closures in functions reachable from the " +
		"inference/streaming hot path",
	Run: runHotAlloc,
}

// hotRoot names one hot-path entry point: package name (not path, so the
// fixture module can mirror the shape), receiver type name ("" for free
// functions), and function name.
type hotRoot struct {
	pkg  string
	recv string
	name string
}

// hotRoots is the root set the reachable hot region grows from.
var hotRoots = []hotRoot{
	{"strudel", "Model", "annotate"},
	{"forest", "Forest", "PredictProba"},
	{"forest", "Forest", "PredictProbaBatch"},
	{"forest", "Compiled", "PredictProbaMatrix"},
	{"forest", "Compiled", "predictRows"},
	{"tree", "Tree", "PredictProba"},
	{"ingest", "Scanner", "Scan"},
	{"dialect", "Splitter", "Write"},
	{"dialect", "Splitter", "Next"},
	{"dialect", "", "DetectBest"},
}

func runHotAlloc(pass *Pass) {
	graph := pass.CallGraph()
	reach := graph.Memo("hotalloc.reach", func() any {
		var roots []*CallNode
		graph.Nodes(func(n *CallNode) {
			if isHotRoot(n) {
				roots = append(roots, n)
			}
		})
		return graph.Reachable(roots, ReachOptions{})
	}).(map[*CallNode]*CallNode)
	if len(reach) == 0 {
		return
	}

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := graph.Node(fn)
			if node == nil {
				continue
			}
			root := reach[node]
			if root == nil {
				continue
			}
			checkHotFunc(pass, fd, root)
		}
	}
}

// isHotRoot matches a node against the root table.
func isHotRoot(n *CallNode) bool {
	pkg := n.Pkg.Types.Name()
	name := n.Func.Name()
	recv := receiverTypeName(n.Func)
	for _, r := range hotRoots {
		if r.pkg == pkg && r.name == name && r.recv == recv {
			return true
		}
	}
	return false
}

// receiverTypeName returns the bare receiver type name of a method ("" for
// a free function).
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkHotFunc applies the four allocation rules to one hot function. The
// witness names the hot root that reaches it so the report explains WHY the
// function is considered hot.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, root *CallNode) {
	hot := hotLabel(root)
	// Slices declared in this function without capacity: var s []T,
	// s := []T{}, s := make([]T, 0) / make([]T) — the append rule's targets.
	bare := bareSlices(pass, fd)

	// loopDepth tracks enclosing for/range statements during the walk.
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(nn ast.Node) bool {
			switch nn := nn.(type) {
			case *ast.ForStmt:
				if nn.Init != nil {
					walk(nn.Init, inLoop)
				}
				if nn.Cond != nil {
					walk(nn.Cond, inLoop)
				}
				if nn.Post != nil {
					walk(nn.Post, true)
				}
				walk(nn.Body, true)
				return false
			case *ast.RangeStmt:
				if nn.X != nil {
					walk(nn.X, inLoop)
				}
				walk(nn.Body, true)
				return false
			case *ast.FuncLit:
				if inLoop && capturesOuter(pass, nn) {
					pass.Reportf(nn.Pos(), "closure capturing outer variables allocates every loop iteration on the %s hot path; hoist it or pass state as arguments", hot)
				}
				// The literal body shares the hot context (flattened).
				walk(nn.Body, inLoop)
				return false
			case *ast.CallExpr:
				checkHotCall(pass, nn, bare, inLoop, hot)
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// checkHotCall applies the call-shaped rules: Sprintf, conversions, append.
func checkHotCall(pass *Pass, call *ast.CallExpr, bare map[types.Object]bool, inLoop bool, hot string) {
	// fmt.Sprintf anywhere in a hot function.
	if fn := calleeFunc(pass.Pkg.Info, call); fn != nil && isPkgFunc(fn, "fmt", "Sprintf") {
		pass.Reportf(call.Pos(), "fmt.Sprintf allocates on the %s hot path; build with append/copy or precompute the string", hot)
		return
	}

	// append(s, ...) in a loop to a slice declared here without capacity.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && inLoop && len(call.Args) > 0 {
			if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.Pkg.Info.Uses[target]; obj != nil && bare[obj] {
					pass.Reportf(call.Pos(), "append in a loop to %s, declared without capacity, reallocates on the %s hot path; preallocate with make(..., 0, n)", target.Name, hot)
				}
			}
		}
		return
	}

	// string(b) / []byte(s) conversions in loops.
	if !inLoop || len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	to := tv.Type
	from := pass.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isStringType(to) && isByteSlice(from) {
		pass.Reportf(call.Pos(), "string([]byte) conversion copies every loop iteration on the %s hot path; keep one representation", hot)
	} else if isByteSlice(to) && isStringType(from) {
		pass.Reportf(call.Pos(), "[]byte(string) conversion copies every loop iteration on the %s hot path; keep one representation", hot)
	}
}

// hotLabel renders a short name for the hot root reaching this function.
func hotLabel(root *CallNode) string {
	if recv := receiverTypeName(root.Func); recv != "" {
		return recv + "." + root.Func.Name()
	}
	return root.Func.Name()
}

// bareSlices collects the slice variables a function declares without
// capacity: `var s []T`, `s := []T{}`, and `s := make([]T, 0)` (or any
// make with a constant-zero length and no capacity).
func bareSlices(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	note := func(id *ast.Ident) {
		if obj := pass.Pkg.Info.Defs[id]; obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					note(name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if bareSliceValue(pass, n.Rhs[i]) {
					note(id)
				}
			}
		}
		return true
	})
	return out
}

// bareSliceValue reports whether e builds an empty, capacity-free slice.
func bareSliceValue(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return false
		}
		if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		switch len(e.Args) {
		case 1:
			return true // make([]T) is invalid for slices, but be safe
		case 2:
			tv, ok := pass.Pkg.Info.Types[e.Args[1]]
			return ok && tv.Value != nil && tv.Value.String() == "0"
		}
		return false
	}
	return false
}

// capturesOuter reports whether a literal references at least one variable
// declared outside it (excluding package-level objects).
func capturesOuter(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if capturedBy(lit, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// Package codecsync checks hand-rolled binary codec pairs for
// field-order agreement. The repo's hot-path bodies (internal/proto)
// and the index segment format (internal/index) are encoded by
// hand-written AppendWire/DecodeWire (and Append*/Decode*) pairs; the
// wire format IS the order those functions touch fields in, so a field
// appended in one order and decoded in another is silent data
// corruption that round-trip tests only catch when the swapped fields
// have incompatible shapes.
//
// The invariant per pair: the decoder must read receiver fields in
// exactly the order the encoder writes them (first-occurrence order;
// loop bodies over a repeated field compare element-field by
// element-field through range/append alias tracking), and neither half
// may touch a field the other does not.
//
// The analysis is syntactic and intentionally conservative: a pair in
// which either half delegates all field work to helpers (no directly
// attributable field events) is skipped rather than guessed at.
// Suppress deliberate asymmetry with //lint:allow codec.
package codecsync

import (
	"go/ast"
	"go/token"
	"strings"

	"roar/internal/analysis"
)

// Analyzer is the codecsync pass.
var Analyzer = &analysis.Analyzer{
	Name:     "codecsync",
	AllowKey: "codec",
	Doc:      "Encode*/Decode* (Append*/Decode*) pairs must touch the same fields in the same order",
	Run:      run,
}

// pair is one encoder/decoder couple under comparison.
type pair struct {
	name     string // type or base name, for messages
	enc, dec *ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	pairs := findPairs(pass)
	for _, p := range pairs {
		encRoot := recvOrParamRoot(p.enc, false)
		decRoot := recvOrParamRoot(p.dec, true)
		if encRoot == "" || decRoot == "" {
			continue
		}
		enc := extractEvents(p.enc, encRoot, encodeSide)
		dec := extractEvents(p.dec, decRoot, decodeSide)
		if len(enc) == 0 || len(dec) == 0 {
			continue // delegating half: nothing attributable to compare
		}
		comparePair(pass, p, enc, dec)
	}
	return nil
}

// findPairs locates method pairs (AppendWire/DecodeWire on one type)
// and function pairs (Append<X>|Encode<X> with Decode<X>, any case).
func findPairs(pass *analysis.Pass) []pair {
	methods := map[string]*pair{} // receiver type name
	funcs := map[string]*pair{}   // base name <X>
	record := func(m map[string]*pair, key string, fd *ast.FuncDecl, enc bool) {
		p := m[key]
		if p == nil {
			p = &pair{name: key}
			m[key] = p
		}
		if enc {
			p.enc = fd
		} else {
			p.dec = fd
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				switch name {
				case "AppendWire":
					record(methods, recvTypeName(fd), fd, true)
				case "DecodeWire":
					record(methods, recvTypeName(fd), fd, false)
				}
				continue
			}
			lower := strings.ToLower(name)
			switch {
			case strings.HasPrefix(lower, "append"):
				record(funcs, lower[len("append"):], fd, true)
			case strings.HasPrefix(lower, "encode"):
				record(funcs, lower[len("encode"):], fd, true)
			case strings.HasPrefix(lower, "decode"):
				record(funcs, lower[len("decode"):], fd, false)
			}
		}
	}
	var out []pair
	for _, m := range []map[string]*pair{methods, funcs} {
		for _, p := range m {
			if p.enc != nil && p.dec != nil {
				out = append(out, *p)
			}
		}
	}
	return out
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// recvOrParamRoot names the message variable: the receiver for methods;
// for plain functions, the first pointer-to-named-type parameter on the
// decode side and the first named-type parameter on the encode side
// (skipping the buffer).
func recvOrParamRoot(fd *ast.FuncDecl, wantPtr bool) string {
	if fd.Recv != nil {
		if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			return fd.Recv.List[0].Names[0].Name
		}
		return ""
	}
	for _, fld := range fd.Type.Params.List {
		t := fld.Type
		isPtr := false
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
			isPtr = true
		}
		id, ok := t.(*ast.Ident)
		if !ok || id.Obj != nil && id.Obj.Kind != ast.Typ {
			continue
		}
		// Skip buffer/reader-ish params by conventional names.
		if !ok || len(fld.Names) != 1 {
			continue
		}
		if wantPtr && !isPtr {
			continue
		}
		if !wantPtr && (id.Name == "byte" || strings.Contains(strings.ToLower(id.Name), "reader") || strings.Contains(strings.ToLower(id.Name), "writer")) {
			continue
		}
		return fld.Names[0].Name
	}
	return ""
}

type side int

const (
	encodeSide side = iota
	decodeSide
)

// event is one attributable field touch.
type event struct {
	path string
	pos  token.Pos
}

// pathOf resolves an expression to a dotted field path rooted at root
// (directly or through an alias). Index/star/paren wrappers are
// dropped; an empty path (the bare root) resolves to "", false.
func pathOf(e ast.Expr, root string, aliases map[string]string) (string, bool) {
	var chain []string
	for {
		switch x := e.(type) {
		case *ast.Ident:
			base := ""
			switch {
			case x.Name == root:
				// rooted directly
			case aliases[x.Name] != "":
				base = aliases[x.Name]
			default:
				return "", false
			}
			if base != "" && len(chain) == 0 {
				return base, true
			}
			// reverse chain
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			path := strings.Join(chain, ".")
			if base != "" {
				if path == "" {
					return base, true
				}
				return base + "." + path, true
			}
			if path == "" {
				return "", false
			}
			return path, true
		case *ast.SelectorExpr:
			chain = append(chain, x.Sel.Name)
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// collectAliases maps locals to receiver paths: range variables over a
// receiver field (encode side), locals later stored or appended into a
// receiver field, and composite-literal element fields (decode side).
// Runs to fixpoint so one level of indirection chains through.
func collectAliases(fd *ast.FuncDecl, root string) map[string]string {
	aliases := map[string]string{}
	for i := 0; i < 4; i++ {
		changed := false
		add := func(name, path string) {
			if name != "" && name != "_" && path != "" && aliases[name] != path {
				if _, exists := aliases[name]; !exists {
					aliases[name] = path
					changed = true
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				if path, ok := pathOf(x.X, root, aliases); ok {
					if id, isID := x.Value.(*ast.Ident); isID {
						add(id.Name, path)
					}
				}
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i := range x.Lhs {
					lpath, lok := pathOf(x.Lhs[i], root, aliases)
					if !lok {
						continue
					}
					switch r := x.Rhs[i].(type) {
					case *ast.Ident:
						add(r.Name, lpath)
					case *ast.CallExpr:
						if id, isID := r.Fun.(*ast.Ident); isID && id.Name == "append" {
							for _, arg := range r.Args[1:] {
								switch a := unwrapAddr(arg).(type) {
								case *ast.Ident:
									add(a.Name, lpath)
								case *ast.CompositeLit:
									for _, elt := range a.Elts {
										kv, isKV := elt.(*ast.KeyValueExpr)
										if !isKV {
											continue
										}
										key, isKey := kv.Key.(*ast.Ident)
										val := unwrapAddr(kv.Value)
										if vid, isVID := val.(*ast.Ident); isKey && isVID {
											add(vid.Name, lpath+"."+key.Name)
										}
									}
								}
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return aliases
}

func unwrapAddr(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// extractEvents walks one codec function and returns its field events
// in source order.
func extractEvents(fd *ast.FuncDecl, root string, s side) []event {
	aliases := collectAliases(fd, root)

	// Nodes to skip: condition expressions (guards, not wire traffic)
	// and method-call Fun selectors.
	skip := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			skip[x.Cond] = true
		case *ast.ForStmt:
			if x.Cond != nil {
				skip[x.Cond] = true
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				skip[x.Tag] = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				skip[sel] = true // method call: not a field touch
			}
		}
		return true
	})

	var events []event
	addEvent := func(e ast.Expr) {
		if path, ok := pathOf(e, root, aliases); ok && path != "" {
			events = append(events, event{path: path, pos: e.Pos()})
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		switch s {
		case encodeSide:
			// Any resolvable selector read is an encode event; don't
			// descend into a resolved selector (q.Q.Preds counts once).
			if e, ok := n.(ast.Expr); ok {
				if _, isSel := n.(*ast.SelectorExpr); isSel {
					if path, resolved := pathOf(e, root, aliases); resolved && path != "" {
						addEvent(e)
						return false
					}
				}
			}
		case decodeSide:
			if as, ok := n.(*ast.AssignStmt); ok {
				for i, lhs := range as.Lhs {
					var rhs ast.Expr
					if len(as.Rhs) == len(as.Lhs) {
						rhs = as.Rhs[i]
					} else if len(as.Rhs) == 1 {
						rhs = as.Rhs[0]
					}
					if rhs != nil && isZeroish(rhs) {
						continue // field reset, not wire traffic
					}
					addEvent(lhs)
				}
				// Still descend: RHS may contain append(recvField, ...)
				// whose arguments carry their own events; LHS selectors
				// are already recorded, and descending would double-add,
				// so mark them.
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						skip[sel] = true
					}
				}
			}
		}
		return true
	}
	// Depth-first, source order.
	var inspect func(n ast.Node)
	inspect = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil {
				return false
			}
			if c == n {
				return true
			}
			if walk(c) {
				inspect(c)
			}
			return false
		})
	}
	for _, stmt := range fd.Body.List {
		if walk(stmt) {
			inspect(stmt)
		}
	}
	return events
}

func isZeroish(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil" || x.Name == "false"
	case *ast.BasicLit:
		return x.Value == "0" || x.Value == `""` || x.Value == "0.0"
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
			return true
		}
	}
	return false
}

// sequence reduces events to the comparable form: first-occurrence
// order, deduplicated, container paths dropped when a child path is
// also present (the container event is just its length prefix/loop).
func sequence(events []event) []event {
	seen := map[string]int{}
	var uniq []event
	for _, e := range events {
		if _, ok := seen[e.path]; ok {
			continue
		}
		seen[e.path] = len(uniq)
		uniq = append(uniq, e)
	}
	hasChild := func(p string) bool {
		prefix := p + "."
		for q := range seen {
			if strings.HasPrefix(q, prefix) {
				return true
			}
		}
		return false
	}
	var out []event
	for _, e := range uniq {
		if !hasChild(e.path) {
			out = append(out, e)
		}
	}
	return out
}

func comparePair(pass *analysis.Pass, p pair, encEvents, decEvents []event) {
	enc := sequence(encEvents)
	dec := sequence(decEvents)
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		if enc[i].path != dec[i].path {
			pass.Reportf(dec[i].pos,
				"codec %s: field order drift — decoder reads %q at position %d where the encoder writes %q; Encode*/Decode* must touch fields in the same order",
				p.name, dec[i].path, i, enc[i].path)
			return // later positions are all shifted; one finding suffices
		}
	}
	for _, e := range enc[n:] {
		pass.Reportf(p.dec.Pos(),
			"codec %s: encoder writes %q but the decoder never reads it", p.name, e.path)
	}
	for _, e := range dec[n:] {
		pass.Reportf(e.pos,
			"codec %s: decoder reads %q but the encoder never writes it", p.name, e.path)
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// //lint:allow directives. A directive names one or more allow keys and
// (by convention, after an em-dash or semicolon) the reason:
//
//	return time.Now() //lint:allow wallclock — the wall clock itself
//	//lint:allow background lock
//	doRisky()
//
// A directive suppresses matching findings on its own line and on the
// line directly below it, so both trailing and leading placement work.
// The key "all" suppresses every analyzer.
type allowSet map[string]map[int][]string // filename → line → keys

const allowPrefix = "//lint:allow"

func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(text[len(allowPrefix):])
				// Strip a trailing reason: everything after an em-dash,
				// " -- ", or ";" is prose.
				for _, sep := range []string{"—", " -- ", ";"} {
					if i := strings.Index(rest, sep); i >= 0 {
						rest = rest[:i]
					}
				}
				keys := strings.Fields(rest)
				if len(keys) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], keys...)
			}
		}
	}
	return set
}

// suppressed reports whether a finding at pos is excused by a directive
// for key on the same line or the line above.
func (s allowSet) suppressed(fset *token.FileSet, pos token.Pos, key string) bool {
	if len(s) == 0 {
		return false
	}
	p := fset.Position(pos)
	byLine := s[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, k := range byLine[line] {
			if k == key || k == "all" {
				return true
			}
		}
	}
	return false
}

package dynamoth

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked names must resolve against the
// code. bench/README.md is not among them: it belongs to the benchmark.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocsResolve holds the documents to the tree. Every backticked token in
// docFiles is classified, and each class must resolve:
//
//   - a flag (`-channel-cap`) must be defined by a flag.* call under cmd/;
//   - a file (`client.go`, `internal/workload/conns*.go`, `cmd/experiments`) must
//     match an existing file or directory, a bare file name anywhere in the tree;
//   - a Go name (`Name`, `pkg.Name`, `Type.Member`, `pkg.Type.Member`, each
//     with an optional `()`, brace lists expanded) must be declared in either
//     module, tests and bench/ included, or exported by a standard package the
//     tree imports; a qualified name on that package or type (or a type it
//     embeds).
//
// A single word in lower case only (`awake`, `topk`, `duplicate`) or upper case
// only (`PUBLISH`, `EAGAIN`), and any token with a space or an underscore
// (commands, metric families, trace kinds, syscalls), is prose to this test,
// not a name. The tuned-constants table in DESIGN.md is checked row by row:
// each constant is declared, and its value column is its source expression.
func TestDocsResolve(t *testing.T) {
	idx := indexTree(t, ".")
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range backticked(string(src)) {
			if msg := idx.resolve(tok.text); msg != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, tok.line, tok.text, msg)
			}
		}
	}
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := constantRows(string(src))
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no tuned-constants table (a table whose header starts with | Constant | Value |)")
	}
	for _, r := range rows {
		got, ok := idx.consts[r.name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md:%d: constant %s is not declared", r.line, r.name)
		case got != r.value:
			t.Errorf("DESIGN.md:%d: constant %s is `%s` in the code, `%s` in the table", r.line, r.name, got, r.value)
		}
	}
}

// goIndex is every name declared in the tree.
type goIndex struct {
	root     string
	pkgs     map[string]map[string]bool // package name → its top-level names
	members  map[string]map[string]bool // type name, bare and "pkg.Type" → fields and methods
	embeds   map[string][]string        // type name, bare and "pkg.Type" → embedded type names
	names    map[string]bool            // every declared name, parameters and members included
	consts   map[string]string          // constant, bare and "pkg.Name" → source expression
	flags    map[string]bool            // flags defined under cmd/
	files    map[string]bool            // base names of every file in the tree
	topLevel map[string]bool            // the tree's top-level directories
}

func indexTree(t *testing.T, root string) *goIndex {
	t.Helper()
	idx := &goIndex{
		root: root, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, names: map[string]bool{}, consts: map[string]string{},
		flags: map[string]bool{}, files: map[string]bool{}, topLevel: map[string]bool{},
	}
	fset := token.NewFileSet()
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") && d.Name() != ".github") {
				return filepath.SkipDir
			}
			if filepath.Dir(path) == root && path != root {
				idx.topLevel[d.Name()] = true
			}
			return nil
		}
		idx.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.addFile(fset, f, src, false, strings.HasPrefix(filepath.ToSlash(path), "cmd/"))
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.Contains(strings.Split(p, "/")[0], ".") {
				std[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The standard packages the tree imports: their exported names count.
	for p := range std {
		dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(p))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution); err == nil {
				idx.addFile(fset, f, src, true, false)
			}
		}
	}
	return idx
}

// addFile indexes one file's declarations; of a standard package's, only the
// exported ones.
func (idx *goIndex) addFile(fset *token.FileSet, f *ast.File, src []byte, std, underCmd bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	keep := func(name string) bool { return !std || ast.IsExported(name) }
	if idx.pkgs[pkg] == nil {
		idx.pkgs[pkg] = map[string]bool{}
	}
	top := idx.pkgs[pkg]
	source := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	member := func(typ, name string) {
		if !keep(typ) || !keep(name) {
			return
		}
		for _, k := range []string{typ, pkg + "." + typ} {
			if idx.members[k] == nil {
				idx.members[k] = map[string]bool{}
			}
			idx.members[k][name] = true
		}
		idx.names[name] = true
	}
	// fields records a struct's or an interface's members under typ.
	fields := func(typ string, list *ast.FieldList) {
		for _, fl := range list.List {
			for _, n := range fl.Names {
				member(typ, n.Name)
			}
			if len(fl.Names) == 0 {
				if e := typeName(fl.Type); e != "" {
					member(typ, e)
					idx.embeds[typ] = append(idx.embeds[typ], e)
					idx.embeds[pkg+"."+typ] = append(idx.embeds[pkg+"."+typ], e)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !keep(d.Name.Name) {
				continue
			}
			idx.names[d.Name.Name] = true
			if d.Recv != nil && len(d.Recv.List) == 1 {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			} else {
				top[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !keep(s.Name.Name) {
						continue
					}
					top[s.Name.Name] = true
					idx.names[s.Name.Name] = true
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields(s.Name.Name, tt.Fields)
					case *ast.InterfaceType:
						fields(s.Name.Name, tt.Methods)
					}
				case *ast.ValueSpec:
					for i, n := range s.Names {
						if !keep(n.Name) {
							continue
						}
						top[n.Name] = true
						idx.names[n.Name] = true
						if d.Tok == token.CONST && !std && i < len(s.Values) {
							idx.consts[n.Name] = source(s.Values[i])
							idx.consts[pkg+"."+n.Name] = source(s.Values[i])
						}
					}
				}
			}
		}
	}
	if std {
		return
	}
	// Parameters, results and anonymous struct fields are names too, and
	// flag.* calls under cmd/ define the flags.
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncType:
			for _, list := range []*ast.FieldList{x.Params, x.Results} {
				if list != nil {
					for _, fl := range list.List {
						for _, nm := range fl.Names {
							idx.names[nm.Name] = true
						}
					}
				}
			}
		case *ast.StructType:
			for _, fl := range x.Fields.List {
				for _, nm := range fl.Names {
					idx.names[nm.Name] = true
				}
			}
		case *ast.CallExpr:
			if underCmd {
				idx.addFlag(x)
			}
		}
		return true
	})
}

// addFlag records the name a flag.X(name, …) or flag.XVar(p, name, …) call
// defines.
func (idx *goIndex) addFlag(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return
	}
	arg := 0
	if strings.HasSuffix(sel.Sel.Name, "Var") {
		arg = 1
	}
	if len(call.Args) <= arg {
		return
	}
	if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if name, err := strconv.Unquote(lit.Value); err == nil {
			idx.flags[name] = true
		}
	}
}

// typeName is the name of a (receiver or embedded) type expression: T, *T,
// pkg.T, T[K, V].
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

var (
	flagToken  = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	identifier = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*$`)
	typeParams = regexp.MustCompile(`\[[A-Za-z, ]*\]`)
	fileExt    = regexp.MustCompile(`\.(go|md|txt|golden|json|sh|yml|mod)$`)
)

// resolve returns why tok does not resolve, or "" when it does or is not a
// name at all.
func (idx *goIndex) resolve(tok string) string {
	switch {
	case strings.ContainsAny(tok, " \t"):
		return ""
	case flagToken.MatchString(tok):
		if !idx.flags[tok[1:]] {
			return "no flag of that name is defined under cmd/"
		}
		return ""
	case fileExt.MatchString(tok) || idx.topLevel[strings.SplitN(tok, "/", 2)[0]] && strings.Contains(tok, "/"):
		return idx.resolveFile(tok)
	case strings.ContainsAny(tok, "_/"):
		return ""
	}
	for _, name := range expandBraces(typeParams.ReplaceAllString(tok, "")) {
		segs := strings.Split(name, ".")
		for i, s := range segs {
			segs[i] = strings.TrimSuffix(s, "()")
			if !identifier.MatchString(segs[i]) {
				return ""
			}
		}
		if len(segs) == 1 && !strings.HasSuffix(name, "()") && (segs[0] == strings.ToLower(segs[0]) || segs[0] == strings.ToUpper(segs[0])) {
			return ""
		}
		if msg := idx.resolveName(segs); msg != "" {
			return msg
		}
	}
	return ""
}

func (idx *goIndex) resolveFile(tok string) string {
	if !strings.Contains(tok, "/") {
		for f := range idx.files {
			if ok, _ := filepath.Match(tok, f); ok {
				return ""
			}
		}
		return "no file of that name in the tree"
	}
	matches, err := filepath.Glob(filepath.Join(idx.root, filepath.FromSlash(strings.TrimSuffix(tok, "/"))))
	if err != nil || len(matches) == 0 {
		return "no such file or directory"
	}
	return ""
}

func (idx *goIndex) resolveName(segs []string) string {
	switch len(segs) {
	case 1:
		if !idx.names[segs[0]] {
			return "not declared anywhere in the tree"
		}
	case 2:
		q, n := segs[0], segs[1]
		if idx.pkgs[q][n] || idx.hasMember(q, n) {
			return ""
		}
		if idx.pkgs[q] == nil && idx.members[q] == nil {
			return "no package or type " + q
		}
		return q + " declares no " + n
	case 3:
		p, q, n := segs[0], segs[1], segs[2]
		if idx.pkgs[p] != nil {
			if !idx.pkgs[p][q] {
				return "package " + p + " declares no " + q
			}
			if !idx.hasMember(p+"."+q, n) {
				return p + "." + q + " has no field or method " + n
			}
			return ""
		}
		if !idx.hasMember(p, q) {
			return "no package " + p + ", and no type " + p + " with a member " + q
		}
		if !idx.names[n] {
			return n + " is not declared anywhere in the tree"
		}
	}
	return ""
}

// hasMember reports whether typ declares name or embeds a type that does.
func (idx *goIndex) hasMember(typ, name string) bool {
	seen := map[string]bool{}
	var has func(string) bool
	has = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if idx.members[t][name] {
			return true
		}
		for _, e := range idx.embeds[t] {
			if has(e) {
				return true
			}
		}
		return false
	}
	return has(typ)
}

// expandBraces turns a{b,c}d into abd and acd, for every brace list.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := strings.IndexByte(s[open:], '}')
	if end < 0 {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:open+end], ",") {
		out = append(out, expandBraces(s[:open]+strings.TrimSpace(alt)+s[open+end+1:])...)
	}
	return out
}

type docToken struct {
	text string
	line int
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// backticked returns the inline code spans of a markdown text outside fenced
// blocks, a span broken over lines joined with a space.
func backticked(md string) []docToken {
	lines := strings.Split(md, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var out []docToken
	for _, m := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
		out = append(out, docToken{
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			line: 1 + strings.Count(text[:m[0]], "\n"),
		})
	}
	return out
}

type constantRow struct {
	name, value string
	line        int
}

// constantRows reads the table whose header starts with | Constant | Value |:
// its first two columns, each one backticked span.
func constantRows(md string) []constantRow {
	var rows []constantRow
	in := false
	for i, l := range strings.Split(md, "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(l), "|"), "|")
		switch {
		case strings.HasPrefix(l, "| Constant | Value |"):
			in = true
		case !in || strings.HasPrefix(l, "|---"):
		case !strings.HasPrefix(l, "|") || len(cells) < 2:
			return rows
		default:
			rows = append(rows, constantRow{
				name:  strings.Trim(strings.TrimSpace(cells[0]), "`"),
				value: strings.Trim(strings.TrimSpace(cells[1]), "`"),
				line:  i + 1,
			})
		}
	}
	return rows
}

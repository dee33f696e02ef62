package hotpotato_test

// docs_test.go keeps the documentation and the source from drifting apart.
// Three classes of check, all running in the ordinary test suite (and hence
// in CI):
//
//   - the flags tables in docs/SERVICE.md list exactly the flags the
//     binaries define — hotpotato-server above the "The sweep fabric"
//     heading, hotpotato-dispatch below it (TestServerFlagsMatchServiceDoc,
//     TestDispatchFlagsMatchServiceDoc) — and the docs/API.md reference
//     stays equal to the code: its route tables to the service and fabric
//     mux registrations (split at the same heading), its error-code table
//     to the Code* constants, its flag mentions to defined flags
//     (TestAPIDoc*, TestFabricDocRoutesMatchDispatcher);
//   - every docs-file §-heading reference in Go sources and markdown
//     resolves to a real heading (TestDocSectionReferencesResolve), and
//     every relative markdown link and backticked docs-path mention points
//     at an existing file (TestMarkdownLinksResolve);
//   - every exported identifier of the numerics packages carries a doc
//     comment (TestExportedAPIsAreDocumented) — the numerics contract is a
//     documented API or it is nothing.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// binaryFlags parses a cmd main.go and returns the defined flag names
// mapped to their default-value expression rendered as source.
func binaryFlags(t *testing.T, path string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Int", "Bool", "Float64", "Duration":
		default:
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok || name.Kind != token.STRING {
			return true
		}
		def := ""
		if lit, ok := call.Args[1].(*ast.BasicLit); ok {
			def = strings.Trim(lit.Value, `"`)
		}
		flags[strings.Trim(name.Value, `"`)] = def
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("no flag definitions found in %s", path)
	}
	return flags
}

// fabricHeading splits docs/SERVICE.md (and docs/API.md): table rows above
// it document hotpotato-server, rows below document hotpotato-dispatch.
const fabricHeading = `## The sweep fabric`

// serviceDocFlags parses the flag tables of docs/SERVICE.md — rows of the
// form `| `-name` | `default` | meaning |` — returning the hotpotato-server
// table (above the fabric heading) and the hotpotato-dispatch table (below)
// separately. The same flag name may legitimately appear in both (e.g.
// -lease-cells, with per-binary meanings).
func serviceDocFlags(t *testing.T) (server, dispatch map[string]string) {
	t.Helper()
	data, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	head, tail, found := strings.Cut(string(data), fabricHeading)
	if !found {
		t.Fatalf("docs/SERVICE.md has no %q heading", fabricHeading)
	}
	row := regexp.MustCompile("^\\| `-([a-z-]+)` \\| (.*?) \\|")
	parse := func(text string) map[string]string {
		flags := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if m := row.FindStringSubmatch(line); m != nil {
				flags[m[1]] = m[2]
			}
		}
		return flags
	}
	server, dispatch = parse(head), parse(tail)
	if len(server) == 0 || len(dispatch) == 0 {
		t.Fatalf("docs/SERVICE.md flag tables: %d server rows, %d dispatch rows — want both non-empty",
			len(server), len(dispatch))
	}
	return server, dispatch
}

// matchFlagsAgainstDoc is the shared bidirectional check: the doc table
// lists exactly the binary's flags, and defaults quoted in the doc match
// the source defaults.
func matchFlagsAgainstDoc(t *testing.T, binary string, src, doc map[string]string) {
	t.Helper()
	for name := range src {
		if _, ok := doc[name]; !ok {
			t.Errorf("flag -%s is defined by %s but missing from its docs/SERVICE.md flags table", name, binary)
		}
	}
	for name := range doc {
		if _, ok := src[name]; !ok {
			t.Errorf("docs/SERVICE.md documents flag -%s which %s does not define", name, binary)
		}
	}
	// For flags with a non-empty literal default, the doc's default column
	// must quote it verbatim (e.g. `:8080`, `info`).
	for name, def := range src {
		if def == "" || def == "0" || def == "false" {
			continue
		}
		if cell, ok := doc[name]; ok && !strings.Contains(cell, def) {
			t.Errorf("docs/SERVICE.md default %q for %s -%s does not mention the source default %q", cell, binary, name, def)
		}
	}
}

func TestServerFlagsMatchServiceDoc(t *testing.T) {
	doc, _ := serviceDocFlags(t)
	matchFlagsAgainstDoc(t, "cmd/hotpotato-server", binaryFlags(t, "cmd/hotpotato-server/main.go"), doc)
}

func TestDispatchFlagsMatchServiceDoc(t *testing.T) {
	_, doc := serviceDocFlags(t)
	matchFlagsAgainstDoc(t, "cmd/hotpotato-dispatch", binaryFlags(t, "cmd/hotpotato-dispatch/main.go"), doc)
}

// muxRoutes parses a Go source file and returns every route pattern
// registered on a `mux` ("METHOD /path").
func muxRoutes(t *testing.T, path string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "mux" {
			return true
		}
		if name := sel.Sel.Name; name != "HandleFunc" && name != "Handle" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			routes[strings.Trim(lit.Value, `"`)] = true
		}
		return true
	})
	if len(routes) == 0 {
		t.Fatalf("no mux registrations found in %s", path)
	}
	return routes
}

// apiDocRoutes parses the route tables of docs/API.md — rows of the form
// `| `METHOD /path` | purpose |` — returning the hotpotato-server table
// (above the fabric heading) and the hotpotato-dispatch table (below)
// separately. POST /v1/batch legitimately appears in both: the dispatcher
// reuses the wire contract.
func apiDocRoutes(t *testing.T) (server, dispatch map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	head, tail, found := strings.Cut(string(data), fabricHeading)
	if !found {
		t.Fatalf("docs/API.md has no %q heading", fabricHeading)
	}
	row := regexp.MustCompile("^\\| `((?:GET|POST|PUT|DELETE) /[^`]*)` \\|")
	parse := func(text string) map[string]bool {
		routes := map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			if m := row.FindStringSubmatch(line); m != nil {
				routes[m[1]] = true
			}
		}
		return routes
	}
	server, dispatch = parse(head), parse(tail)
	if len(server) == 0 || len(dispatch) == 0 {
		t.Fatalf("docs/API.md route tables: %d server rows, %d dispatch rows — want both non-empty",
			len(server), len(dispatch))
	}
	return server, dispatch
}

// matchRoutesAgainstDoc is the shared bidirectional check between one mux
// and one doc table.
func matchRoutesAgainstDoc(t *testing.T, pkg string, src, doc map[string]bool) {
	t.Helper()
	for r := range src {
		if !doc[r] {
			t.Errorf("route %q is registered by %s but missing from its docs/API.md routes table", r, pkg)
		}
	}
	for r := range doc {
		if !src[r] {
			t.Errorf("docs/API.md documents route %q which %s does not register", r, pkg)
		}
	}
}

// TestAPIDocRoutesMatchServer keeps the docs/API.md routes table equal to the
// mux registrations of internal/service — a route added or removed in code
// must show up here.
func TestAPIDocRoutesMatchServer(t *testing.T) {
	doc, _ := apiDocRoutes(t)
	matchRoutesAgainstDoc(t, "internal/service", muxRoutes(t, "internal/service/service.go"), doc)
}

// TestFabricDocRoutesMatchDispatcher holds the fabric section of docs/API.md
// to the same standard: its table lists exactly the dispatcher's mux.
func TestFabricDocRoutesMatchDispatcher(t *testing.T) {
	_, doc := apiDocRoutes(t)
	matchRoutesAgainstDoc(t, "internal/fabric", muxRoutes(t, "internal/fabric/http.go"), doc)
}

// TestAPIDocErrorCodesMatchService keeps the docs/API.md error-code table
// equal to the Code* string constants of internal/fabric/errors.go.
func TestAPIDocErrorCodesMatchService(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/fabric/errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "Code") || i >= len(spec.Values) {
				continue
			}
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				codes[strings.Trim(lit.Value, `"`)] = true
			}
		}
		return true
	})
	if len(codes) == 0 {
		t.Fatal("no Code* constants found in internal/fabric/errors.go")
	}

	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\| [0-9]{3} \\|")
	doc := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			doc[m[1]] = true
		}
	}
	for c := range codes {
		if !doc[c] {
			t.Errorf("error code %q is defined by internal/fabric but missing from the docs/API.md code table", c)
		}
	}
	for c := range doc {
		if !codes[c] {
			t.Errorf("docs/API.md documents error code %q which internal/service does not define", c)
		}
	}
}

// TestAPIDocFlagsExist: every `-flag` mentioned in docs/API.md must be a
// flag one of the binaries actually defines.
func TestAPIDocFlagsExist(t *testing.T) {
	src := binaryFlags(t, "cmd/hotpotato-server/main.go")
	for name, def := range binaryFlags(t, "cmd/hotpotato-dispatch/main.go") {
		if _, ok := src[name]; !ok {
			src[name] = def
		}
	}
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	mention := regexp.MustCompile("`-([a-z][a-z-]+)`")
	for _, m := range mention.FindAllStringSubmatch(string(data), -1) {
		if _, ok := src[m[1]]; !ok {
			t.Errorf("docs/API.md mentions flag -%s which neither binary defines", m[1])
		}
	}
}

// docSectionRef matches docs-path section references of the shape
// docs/<NAME>.md §"Some heading" in source and documentation.
var docSectionRef = regexp.MustCompile(`docs/([A-Z_]+\.md) §"([^"]+)"`)

func TestDocSectionReferencesResolve(t *testing.T) {
	docs := map[string]string{}
	readDoc := func(name string) string {
		if s, ok := docs[name]; ok {
			return s
		}
		data, err := os.ReadFile(filepath.Join("docs", name))
		if err != nil {
			t.Fatalf("referenced doc does not exist: %v", err)
		}
		docs[name] = string(data)
		return docs[name]
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range docSectionRef.FindAllStringSubmatch(string(data), -1) {
			if !strings.Contains(readDoc(m[1]), m[2]) {
				t.Errorf("%s references docs/%s §%q, but no such heading text exists", path, m[1], m[2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	mdLink     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdWikiLink = regexp.MustCompile(`\[\[([^\]\n]+)\]\]`)
	mdPathWord = regexp.MustCompile("`((?:docs/)?[A-Za-z_]+\\.md)`")
)

// TestMarkdownLinksResolve checks every relative markdown link and every
// backticked *.md path mention in README.md and docs/ against the
// filesystem.
func TestMarkdownLinksResolve(t *testing.T) {
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		dir := filepath.Dir(file)
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				t.Errorf("%s links to %q which does not exist", file, m[1])
			}
		}
		// Mentions like `docs/THEORY.md` are links in spirit; they must
		// resolve from the repository root.
		for _, m := range mdPathWord.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s mentions %q which does not exist at the repo root", file, m[1])
			}
		}
		// Wiki-style [[target]] links (none today, but cheap to keep honest):
		// the target must exist as a file, with or without a .md suffix.
		for _, m := range mdWikiLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if _, err := os.Stat(filepath.Join(dir, target)); err == nil {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target+".md")); err == nil {
				continue
			}
			t.Errorf("%s wiki-links [[%s]] which resolves to no file", file, target)
		}
	}
}

// TestExportedAPIsAreDocumented walks the numerics packages and requires a
// doc comment on every exported top-level declaration — types, functions,
// methods on exported receivers, and const/var groups (a group comment
// covers its members).
func TestExportedAPIsAreDocumented(t *testing.T) {
	for _, dir := range []string{"internal/matrix", "internal/thermal", "internal/rotation"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDeclDocumented(t, fset, decl)
				}
			}
		}
	}
}

func checkDeclDocumented(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			return
		}
		if d.Doc.Text() == "" {
			t.Errorf("%s: exported func %s has no doc comment", pos(d), d.Name.Name)
		}
	case *ast.GenDecl:
		groupDoc := d.Doc.Text() != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !groupDoc && s.Doc.Text() == "" {
					t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
				}
			case *ast.ValueSpec:
				if groupDoc || s.Doc.Text() != "" {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						t.Errorf("%s: exported %s has no doc comment (neither on the spec nor the group)", pos(s), name.Name)
					}
				}
			}
		}
	}
}

func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// Command doccheck is the CI documentation gate. It enforces five
// invariants and exits non-zero if any fails:
//
//  1. Every Go package under internal/ and cmd/ carries a package comment
//     (a doc comment on the package clause in at least one file).
//  2. Every relative link in the repository's top-level *.md files points
//     at a file or directory that exists.
//  3. Every internal/* package is mentioned in ARCHITECTURE.md by its
//     "internal/<path>" import-style name — the architecture document
//     must at least place each package in the layer map.
//  4. Every output file EXPERIMENTS.md cites — a backticked name ending in
//     .txt or .json, resolved from the repository root — exists.
//  5. Every backticked `pkg.Name` in README, ARCHITECTURE, DESIGN and
//     EXPERIMENTS, where pkg is an internal/ package and Name is
//     capitalised, names a top-level declaration, a method or a struct
//     field of that package. Lowercase names (`strategies.udf`, a metric
//     prefix) are not checked. Likewise every backticked `Type.Member` or
//     `pkg.Type.Member`, where Type is an exported type declared under
//     internal/ (in pkg, when given) and Member is capitalised, names a
//     field or method of that type, or of a type it embeds.
//
// Usage (from the repository root):
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	bad := 0
	bad += checkPackageComments(".")
	bad += checkMarkdownLinks(".")
	bad += checkArchitectureCoverage(".")
	bad += checkCitedOutputs(".")
	bad += checkQualifiedNames(".")
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// checkPackageComments walks internal/ and cmd/ and reports packages
// whose files all lack a package doc comment.
func checkPackageComments(root string) int {
	bad := 0
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			entries, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			hasGo := false
			documented := false
			fset := token.NewFileSet()
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				hasGo = true
				f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					return fmt.Errorf("parsing %s: %w", filepath.Join(path, name), err)
				}
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if hasGo && !documented {
				fmt.Fprintf(os.Stderr, "doccheck: package %s has no package comment\n", path)
				bad++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: walking %s: %v\n", top, err)
			bad++
		}
	}
	return bad
}

// checkArchitectureCoverage requires ARCHITECTURE.md to mention every
// internal/* package (any directory under internal/ with at least one
// non-test .go file) by its "internal/<path>" name. A package the
// architecture document does not even name is a package no reader can
// place in the system.
func checkArchitectureCoverage(root string) int {
	data, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	doc := string(data)
	bad := 0
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		if !strings.Contains(doc, pkg) {
			fmt.Fprintf(os.Stderr, "doccheck: ARCHITECTURE.md never mentions %s\n", pkg)
			bad++
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: walking internal: %v\n", err)
		bad++
	}
	return bad
}

// mdLink matches inline markdown links; links starting with a scheme or
// an in-page anchor are skipped.
var mdLink = regexp.MustCompile(`\]\(([^)\s#]+)(?:#[^)\s]*)?\)`)

// checkMarkdownLinks verifies relative links in top-level markdown files.
func checkMarkdownLinks(root string) int {
	bad := 0
	entries, err := os.ReadDir(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		// SNIPPETS.md reproduces documentation from external repositories
		// verbatim; its links target files that only exist upstream.
		if e.Name() == "SNIPPETS.md" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, e.Name()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			bad++
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, target)); err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %s links to missing %q\n", e.Name(), target)
				bad++
			}
		}
	}
	return bad
}

// citedOutput matches a backticked file name ending in .txt or .json.
var citedOutput = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:txt|json))`")

// checkCitedOutputs requires every output file EXPERIMENTS.md cites to
// exist, so a recorded result always points at the run that produced it.
func checkCitedOutputs(root string) int {
	data, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	bad := 0
	for _, m := range citedOutput.FindAllStringSubmatch(string(data), -1) {
		if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: EXPERIMENTS.md cites missing output %q\n", m[1])
			bad++
		}
	}
	return bad
}

// qualifiedName matches pkg.Name inside a backticked span: a lowercase
// identifier not itself preceded by a selector, then a capitalised one.
// memberName matches Type.Member, optionally pkg.Type.Member: two
// capitalised identifiers not themselves preceded by a selector other
// than a lowercase package name.
var (
	backticked    = regexp.MustCompile("`([^`\n]+)`")
	qualifiedName = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	memberName    = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])(?:([a-z][a-z0-9]*)\.)?([A-Z][A-Za-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// checkQualifiedNames requires every backticked pkg.Name in the main
// documents to resolve in the internal/ package called pkg, and every
// backticked Type.Member to resolve in the exported internal/ type called
// Type, so a renamed or deleted identifier cannot linger in the prose.
func checkQualifiedNames(root string) int {
	names, types, err := internalDecls(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 1
	}
	bad := 0
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			bad++
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range backticked.FindAllStringSubmatch(line, -1) {
				for _, m := range qualifiedName.FindAllStringSubmatch(span[1], -1) {
					if decls, ok := names[m[1]]; ok && !decls[m[2]] {
						fmt.Fprintf(os.Stderr, "doccheck: %s:%d: %s.%s names nothing in package %s\n", doc, i+1, m[1], m[2], m[1])
						bad++
					}
				}
				for _, m := range memberName.FindAllStringSubmatch(span[1], -1) {
					if _, ok := names[m[1]]; m[1] != "" && !ok {
						continue // not an internal/ package
					}
					if ts := types.lookup(m[1], m[2]); ts != nil && !types.has(ts, m[3]) {
						fmt.Fprintf(os.Stderr, "doccheck: %s:%d: %s.%s names no field or method of %s\n", doc, i+1, m[2], m[3], m[2])
						bad++
					}
				}
			}
		}
	}
	return bad
}

// internalDecls parses the non-test files of every internal/ package once
// and maps each package name to the names it declares (top-level
// declarations, methods and struct fields) and to its exported types with
// their fields and methods.
func internalDecls(root string) (map[string]map[string]bool, typeIndex, error) {
	names, types := map[string]map[string]bool{}, typeIndex{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			decls, typs := names[name], types[name]
			if decls == nil {
				decls, typs = map[string]bool{}, map[string]*typeInfo{}
				names[name], types[name] = decls, typs
			}
			info := func(n string) *typeInfo {
				if typs[n] == nil {
					typs[n] = &typeInfo{members: map[string]bool{}}
				}
				return typs[n]
			}
			for _, f := range pkg.Files {
				for _, obj := range f.Scope.Objects {
					decls[obj.Name] = true
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						decls[n.Name.Name] = true
						if n.Recv != nil && len(n.Recv.List) == 1 {
							if t := recvName(n.Recv.List[0].Type); ast.IsExported(t) {
								info(t).members[n.Name.Name] = true
							}
						}
					case *ast.TypeSpec:
						if !n.Name.IsExported() {
							return true
						}
						t := info(n.Name.Name)
						var fields []*ast.Field
						switch u := n.Type.(type) {
						case *ast.StructType:
							fields = u.Fields.List
						case *ast.InterfaceType:
							fields = u.Methods.List
						}
						for _, fld := range fields {
							for _, id := range fld.Names {
								t.members[id.Name] = true
							}
							if len(fld.Names) == 0 {
								e := embeddedName(fld.Type)
								t.members[e] = true
								t.embeds = append(t.embeds, e)
							}
						}
					case *ast.StructType:
						for _, fld := range n.Fields.List {
							for _, id := range fld.Names {
								decls[id.Name] = true
							}
							if len(fld.Names) == 0 {
								decls[embeddedName(fld.Type)] = true
							}
						}
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, id := range m.Names {
								decls[id.Name] = true
							}
						}
					}
					return true
				})
			}
		}
		return nil
	})
	return names, types, err
}

// typeInfo is one exported type of an internal/ package: its fields and
// methods, and the names of the types it embeds.
type typeInfo struct {
	members map[string]bool
	embeds  []string
}

// typeIndex maps each internal/ package name to its exported types by name.
type typeIndex map[string]map[string]*typeInfo

// lookup returns the exported types called name in package pkg, or in any
// internal/ package when pkg is empty; nil when there is none.
func (ix typeIndex) lookup(pkg, name string) []*typeInfo {
	var out []*typeInfo
	for p, types := range ix {
		if t := types[name]; t != nil && (pkg == "" || pkg == p) {
			out = append(out, t)
		}
	}
	return out
}

// has reports whether one of ts, or a type one of them embeds, has the
// field or method member.
func (ix typeIndex) has(ts []*typeInfo, member string) bool {
	seen := map[*typeInfo]bool{}
	for len(ts) > 0 {
		t := ts[0]
		ts = ts[1:]
		if seen[t] {
			continue
		}
		seen[t] = true
		if t.members[member] {
			return true
		}
		for _, e := range t.embeds {
			ts = append(ts, ix.lookup("", e)...)
		}
	}
	return false
}

// recvName is the type name of a method receiver.
func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// embeddedName is the field name an embedded struct field takes.
func embeddedName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

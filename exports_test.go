package rescq

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal packages that no
// program calls but that stay exported, each with the reason. A name is
// written as package.Name or package.Type.Method, the package relative to
// internal/.
var exportAllowlist = map[string]string{
	"circuit.Circuit.Validate":         "the qbench and circuit fuzz tests check generated and parsed circuits",
	"circuit.DAG.CriticalPathLength":   "the unweighted schedule lower bound a planned latency-weighted check builds on",
	"fault.Disable":                    "the store and service suites disarm failpoints between cases",
	"fault.Fires":                      "the store suite counts a burst's injected failures",
	"fault.Names":                      "the chaos suite walks every armed failpoint",
	"fault.Stats":                      "the chaos suite asserts which faults fired",
	"graph.Tree.Contains":              "core's MST audit compares the pipeline's tree with a fresh Kruskal edge by edge",
	"metrics.Histogram.Fraction":       "the experiments suite checks the Figure 5 latency claims",
	"metrics.Histogram.FractionAtMost": "the experiments suite checks the Figure 5 latency claims",
	"rus.ExpectedInjections":           "a planned full-fidelity reproduction test checks injections per run against it",
	"sim.GatePending":                  "the zero GateStatus, which the engine's reset leaves; the invariants test names it",
	"store.Replay":                     "the service tests read a log back as written",
	"store.Store.Compact":              "the service and rescq-walcat tests force a compaction",
}

// TestInternalExportsHaveCallers type-checks every package of this module and
// of the bench module and fails when an exported name in internal/ has no
// user outside test files and no allowlist entry, or when an allowlist entry
// names something that is gone or that a program now calls.
func TestInternalExportsHaveCallers(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	flagged, err := unusedInternalExports([]string{".", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	isFlagged := map[string]bool{}
	for _, name := range flagged {
		isFlagged[name] = true
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s is exported but only tests use it: delete it, move it into a _test.go file, or allowlist it with a reason", name)
		}
	}
	for name := range exportAllowlist {
		if !isFlagged[name] {
			t.Errorf("allowlist entry %s is stale: the name is gone or a program calls it", name)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages runs go list in dir and returns the packages of ./... and their
// dependencies, each dependency before its importers.
func listPackages(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "-export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list in " + dir + ": " + err.Error() + ": " + stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// sourceImporter serves the module's packages from their checked sources and
// everything else from compiler export data.
type sourceImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (i sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.checked[path]; ok {
		return p, nil
	}
	return i.gc.Import(path)
}

// dynamicInterfaces are the anonymous interfaces through which the standard
// library calls methods (errors.Is, errors.As, errors.Unwrap); export data
// does not show them.
const dynamicInterfaces = `package dyn
type isErr interface{ Is(error) bool }
type asErr interface{ As(any) bool }
type unwrapErr interface{ Unwrap() error }
type unwrapErrs interface{ Unwrap() []error }
`

// unusedInternalExports lists, as package.Name or package.Type.Method, the
// exported names of internal packages that no non-test file of the modules
// rooted at dirs uses. A method counts as used when its type satisfies an
// interface that has it, and a use of a generic instantiation counts for its
// origin.
func unusedInternalExports(dirs []string) ([]string, error) {
	var order []listedPackage
	seen := map[string]bool{}
	exports := map[string]string{}
	for _, dir := range dirs {
		pkgs, err := listPackages(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Standard || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			order = append(order, p)
		}
	}

	fset := token.NewFileSet()
	imp := sourceImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exports[path]; ok {
				return os.Open(f)
			}
			return nil, errors.New("no export data for " + path)
		}),
	}
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	var internal []*types.Package
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		imp.checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		addIfaces(pkg.Scope())
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			internal = append(internal, pkg)
		}
	}
	if len(internal) == 0 || imp.checked["repro/bench"] == nil {
		return nil, errors.New("scan saw no internal package or missed the bench module")
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		addIfaces(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.checked {
		walk(p)
	}
	dyn, err := (&types.Config{}).Check("dyn", fset, []*ast.File{mustParse(fset, dynamicInterfaces)}, nil)
	if err != nil {
		return nil, err
	}
	addIfaces(dyn.Scope())

	satisfies := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var flagged []string
	for _, pkg := range internal {
		short := strings.TrimPrefix(pkg.Path(), "repro/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				flagged = append(flagged, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m) {
					flagged = append(flagged, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

// origin maps an instantiated function, method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func mustParse(fset *token.FileSet, src string) *ast.File {
	f, err := parser.ParseFile(fset, "dyn.go", src, 0)
	if err != nil {
		panic(err)
	}
	return f
}

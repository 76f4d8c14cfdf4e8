package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ifaceMethods are method names the standard library calls through its
// interfaces (fmt.Stringer, error, json.Marshaler, http.Handler, io.*,
// sort.Interface, errors.Unwrap), so no call site in this repository
// names them.
var ifaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Unwrap": true,
}

// testOnlyAPI lists the exported functions under internal/ that no
// program calls but that tests in other packages use as an oracle or a
// fixture, each with the tests that use it.
var testOnlyAPI = map[string]string{
	"Agent.Idle":        "bench_test.go benchDefense, benchTenant; evset TestBudgetExpiry; probe TestDebugSenderEviction; victim TestScheduledFetchesLandOnTargetSet",
	"Cycles.Millis":     "evset ExampleBuildSingle; attack TestEndToEndCloudNoise, TestEndToEndQuiet; tenant TestMeanRates",
	"Host.InLLC":        "evset TestDebugLLCEvictionMechanics; victim TestScheduledFetchesLandOnTargetSet",
	"Host.InPrivate":    "evset TestDebugLLCEvictionMechanics; probe TestDebugSenderEviction",
	"Host.InSF":         "evset TestDebugLLCEvictionMechanics; probe TestDebugSenderEviction; victim TestScheduledFetchesLandOnTargetSet",
	"Host.ScheduledLen": "victim TestScheduledFetchesLandOnTargetSet",
	"NonceBits":         "victim TestTriggerSignGroundTruth; ecdsa TestHookObservesExactNonceBits, TestNonceBitsLayout",
	"ToyCurve":          "bench_test.go BenchmarkMicro_LatticeHNPToy; ecdsa and lattice tests (a curve whose group order is exact)",
}

// TestEveryExportedFunctionIsCalled fails when an exported function or
// method under internal/ is named by no non-test Go file of the
// repository (llcbench/ included) other than its own declaration, unless
// testOnlyAPI lists it with the tests that use it. An API with no
// caller protects no behaviour, yet every refactor must keep it
// compiling. Names are matched by identifier, not by type, so a name
// that two declarations share counts as used; comments do not count.
func TestEveryExportedFunctionIsCalled(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pos string }
	var decls []decl
	uses := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				if ifaceMethods[key] {
					continue
				}
				key = recvName(fd.Recv.List[0].Type) + "." + key
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	listed := make(map[string]bool)
	var unused []string
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > 1 {
			continue
		}
		if _, ok := testOnlyAPI[d.key]; ok {
			listed[d.key] = true
			continue
		}
		unused = append(unused, d.key+" ("+d.pos+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is called by no program: delete it, move it into its package's tests, or list it in testOnlyAPI with the tests that use it", u)
	}
	for key := range testOnlyAPI {
		if !listed[key] {
			t.Errorf("testOnlyAPI lists %s, which is gone or now has a caller outside tests", key)
		}
	}
}

// recvName returns the type name of a method receiver, without its
// pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// Command reach lists every function declared in a non-test file under
// internal/ that no binary of the repository links: the main packages under
// cmd/ and examples/, and the perfbench module. It builds each binary with
// inlining off, so every call keeps its symbol, reads the symbol tables with
// `go tool nm`, and matches them against the declarations go/parser finds.
// A function named in reach.allow, one per line with its reason, is exempt;
// an allow entry that names no unlinked function fails the check too.
//
// Run it from the repository root: go run ./cmd/reach
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// typeArgs matches one innermost bracketed type-argument list of a symbol.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

func main() {
	tmp, err := os.MkdirTemp("", "reach")
	check(err)
	defer os.RemoveAll(tmp)
	linked := map[string]bool{}
	mains, _ := filepath.Glob("cmd/*")
	examples, _ := filepath.Glob("examples/*")
	for _, dir := range append(append(mains, examples...), "perfbench") {
		bin := filepath.Join(tmp, filepath.Base(dir))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = dir // perfbench is its own module, so build from inside
		build.Stderr = os.Stderr
		check(build.Run())
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		check(err)
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				linked[key(strings.Join(f[2:], " "))] = true
			}
		}
	}

	allow := map[string]bool{}
	if f, err := os.Open("reach.allow"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 1 && !strings.HasPrefix(f[0], "#") {
				allow[f[0]] = true
			}
		}
		f.Close()
	}

	var dead []string
	fset := token.NewFileSet()
	check(filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" {
				continue
			}
			local := fn.Name.Name
			if fn.Recv != nil {
				local = recvName(fn.Recv.List[0].Type) + "." + local
			}
			name := file.Name.Name + "." + local
			switch {
			case linked["rcb/"+filepath.ToSlash(filepath.Dir(path))+"."+local]:
			case allow[name]:
				delete(allow, name)
			default:
				pos, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				dead = append(dead, fmt.Sprintf("%s:%d: %s (%d lines)", path, pos.Line, name, end.Line-pos.Line+1))
			}
		}
		return nil
	}))
	for name := range allow {
		dead = append(dead, "reach.allow: "+name+" is linked or not declared")
	}
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "reach: %d functions under internal/ run in no binary\n", len(dead))
		os.Exit(1)
	}
}

// key normalizes a linker symbol to pkgpath.Func or pkgpath.Type.Method:
// type arguments and pointer-receiver parentheses go.
func key(sym string) string {
	for s := ""; s != sym; {
		s, sym = sym, typeArgs.ReplaceAllString(sym, "")
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}

// recvName returns the bare type name of a method receiver.
func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr: // a generic receiver, T[P]
		return recvName(t.X)
	case *ast.IndexListExpr: // T[P, Q]
		return recvName(t.X)
	}
	return t.(*ast.Ident).Name
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
}

package analysis

import (
	"bufio"
	"go/build"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// StdVersion flags standard-library packages and symbols newer than the
// module's go directive. CI builds with the go.mod version, but a newer
// local toolchain compiles and vets code using newer APIs without
// complaint (a go 1.22 module using `weak.Make` and `runtime.AddCleanup`
// passed `go vet -stdversion` under Go 1.24), so such code breaks only
// in CI. The analyzer reads the toolchain's API lists,
// $GOROOT/api/go1.N.txt, and reports an import of a package, or a use of
// a package-level symbol, method or struct field, that first appears in
// a list above the module's version. A file whose //go:build line requires a newer Go is held to
// that version instead. Uses of a package that is itself too new are
// reported once, at its import.
var StdVersion = &Analyzer{
	Name: "stdversion",
	Doc:  "flags standard-library packages and symbols newer than go.mod's go version",
	Run:  runStdVersion,
}

// stdAPI records, per standard-library package and per symbol, the
// minor Go version whose API list first names it. Symbol keys are
// "path.Name" for package-level names and "path.Type.Member" for
// methods and struct fields.
type stdAPI struct {
	pkgs map[string]int
	syms map[string]int
}

var (
	stdAPIOnce sync.Once
	stdAPIVal  *stdAPI
)

// loadStdAPI reads $GOROOT/api/go1*.txt once per process. It returns
// nil when the toolchain ships no API lists, which leaves the check
// silent.
func loadStdAPI() *stdAPI {
	stdAPIOnce.Do(func() {
		dir := filepath.Join(build.Default.GOROOT, "api")
		api := &stdAPI{pkgs: map[string]int{}, syms: map[string]int{}}
		// Lists are read in version order, so the first version that
		// names a key is the one kept.
		for minor := 0; ; minor++ {
			name := "go1.txt"
			if minor > 0 {
				name = "go1." + strconv.Itoa(minor) + ".txt"
			}
			f, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				break
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				api.add(sc.Text(), minor)
			}
			f.Close()
		}
		if len(api.pkgs) > 0 {
			stdAPIVal = api
		}
	})
	return stdAPIVal
}

// add records one API line, such as
//
//	pkg weak, func Make[$0 interface{}](*$0) Pointer[$0] #67552
//	pkg sync, method (*Map) Clear() #61696
//	pkg net, type DNSError struct, UnwrapErr error #63116
//	pkg syscall (linux-386), const EBADMSG = 74
func (a *stdAPI) add(line string, minor int) {
	head, decl, ok := strings.Cut(line, ", ")
	if !ok || !strings.HasPrefix(head, "pkg ") {
		return
	}
	path, _, _ := strings.Cut(strings.TrimPrefix(head, "pkg "), " ")
	if _, seen := a.pkgs[path]; !seen {
		a.pkgs[path] = minor
	}
	kind, rest, _ := strings.Cut(decl, " ")
	var key string
	switch kind {
	case "func", "const", "var":
		key = path + "." + apiName(rest)
	case "method":
		// "(*Recv[$0]) Name(...) ..."
		recv, m, ok := strings.Cut(strings.TrimPrefix(rest, "("), ") ")
		if !ok {
			return
		}
		recv, _, _ = strings.Cut(strings.TrimPrefix(recv, "*"), "[")
		key = path + "." + recv + "." + apiName(m)
	case "type":
		typ, member, isMember := strings.Cut(rest, ", ")
		key = path + "." + apiName(typ)
		if isMember {
			if strings.HasPrefix(member, "embedded ") {
				return
			}
			key += "." + apiName(member)
		}
	default:
		return
	}
	if _, seen := a.syms[key]; !seen {
		a.syms[key] = minor
	}
}

// apiName is the identifier an API declaration starts with.
func apiName(s string) string {
	if i := strings.IndexAny(s, " ([="); i >= 0 {
		return s[:i]
	}
	return s
}

// goMinor parses the minor version of "1.22", "1.22.3" or "go1.22".
func goMinor(v string) (int, bool) {
	v = strings.TrimPrefix(v, "go")
	rest, ok := strings.CutPrefix(v, "1.")
	if !ok {
		return 0, false
	}
	minor, _, _ := strings.Cut(rest, ".")
	n, err := strconv.Atoi(minor)
	return n, err == nil
}

func runStdVersion(p *Pass) {
	mod, ok := goMinor(p.GoVersion)
	api := loadStdAPI()
	if !ok || api == nil {
		return
	}
	fileMinor := map[string]int{} // file name -> the version it is held to
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		fileMinor[name] = mod
		if v, ok := goMinor(f.GoVersion); ok && v > mod {
			fileMinor[name] = v
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if v, ok := api.pkgs[path]; ok && v > fileMinor[name] {
				p.ReportNodef(imp, "package %s is go1.%d API; go.mod declares go %s", path, v, p.GoVersion)
			}
		}
	}
	fields := map[*types.Var]string{}
	for id, obj := range p.Info.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		pv, isStd := api.pkgs[pkg.Path()]
		if !isStd || pv > mod {
			continue // not the standard library, or reported at its import
		}
		key := apiKey(obj, fields)
		if key == "" {
			continue
		}
		v, ok := api.syms[key]
		if ok && v > fileMinor[p.Fset.Position(id.Pos()).Filename] {
			p.ReportNodef(id, "%s is go1.%d API; go.mod declares go %s", key, v, p.GoVersion)
		}
	}
}

// apiKey returns the API-list key of a standard-library object, or ""
// for an object the lists do not name (locals, parameters, fields of
// unnamed structs).
func apiKey(obj types.Object, fields map[*types.Var]string) string {
	path := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		sig, _ := o.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return path + "." + o.Name()
		}
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.Var:
		o = o.Origin()
		if !o.IsField() {
			if o.Parent() == obj.Pkg().Scope() {
				return path + "." + o.Name()
			}
			return ""
		}
		if owner := fieldOwner(o, fields); owner != "" {
			return path + "." + owner + "." + o.Name()
		}
		return ""
	case *types.Const, *types.TypeName:
		if obj.Parent() == obj.Pkg().Scope() {
			return path + "." + obj.Name()
		}
	}
	return ""
}

// fieldOwner returns the name of the package-level struct type that
// declares field v, indexing the fields of v's package on first ask.
func fieldOwner(v *types.Var, fields map[*types.Var]string) string {
	if owner, ok := fields[v]; ok {
		return owner
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				fields[st.Field(i)] = name
			}
		}
	}
	if _, ok := fields[v]; !ok {
		fields[v] = "" // a field of an unnamed struct
	}
	return fields[v]
}

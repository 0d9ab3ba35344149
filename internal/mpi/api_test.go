package mpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface pins the package's exported names: every exported
// function, method, type, constant and variable declared in a non-test file,
// methods as Type.Method. Adding or removing a public name is then a one-line
// change to apiSurface below, in review.
func TestAPISurface(t *testing.T) {
	got := exportedNames(t)
	if slices.Equal(got, apiSurface) {
		return
	}
	for _, n := range got {
		if !slices.Contains(apiSurface, n) {
			t.Errorf("exported but not in apiSurface: %s", n)
		}
	}
	for _, n := range apiSurface {
		if !slices.Contains(got, n) {
			t.Errorf("in apiSurface but not exported: %s", n)
		}
	}
	if !t.Failed() {
		t.Errorf("apiSurface is not sorted and free of duplicates: want\n%s", strings.Join(got, "\n"))
	}
}

// exportedNames parses every non-test Go file of the package, whatever its
// build constraints, and returns the exported names, sorted and unique.
func exportedNames(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								names = append(names, id.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// apiSurface is the package's public API, one name a line, sorted.
var apiSurface = []string{
	"Allgather",
	"AllgatherSlice",
	"Allreduce",
	"AllreduceSlice",
	"AllreduceSliceOp",
	"AlltoallCounts",
	"AlltoallvInto",
	"AlltoallvSlice",
	"AnySource",
	"AnyTag",
	"Bcast",
	"BlockedOp",
	"BlockedOp.String",
	"Cart",
	"Cart.Comm",
	"Cart.SendrecvShift",
	"ColorUndefined",
	"Combine",
	"CombineSlices",
	"Comm",
	"Comm.Abort",
	"Comm.Barrier",
	"Comm.Compute",
	"Comm.FailedRanks",
	"Comm.Irecv",
	"Comm.Isend",
	"Comm.ProcessorName",
	"Comm.Rank",
	"Comm.Recover",
	"Comm.Recv",
	"Comm.Send",
	"Comm.Sendrecv",
	"Comm.Size",
	"Comm.Split",
	"Comm.Wtime",
	"CorruptFrameError",
	"CorruptFrameError.Error",
	"CreateShmSegment",
	"DeadlineError",
	"DeadlineError.Error",
	"DeadlineError.Is",
	"ErrDeadlineExceeded",
	"ErrFormationTimeout",
	"ErrInvalidRank",
	"ErrInvalidTag",
	"ErrRankFailed",
	"ErrRankKilled",
	"ErrRestoreTimeout",
	"ErrSessionLost",
	"ErrShmUnsupported",
	"ErrShutdown",
	"ErrWorldAborted",
	"FaultAction",
	"FaultAction.String",
	"FaultCorrupt",
	"FaultDelay",
	"FaultDisconnect",
	"FaultDrop",
	"FaultDuplicate",
	"FaultKillRank",
	"FaultPlan",
	"FaultReport",
	"FaultReport.Injected",
	"FaultRule",
	"Gather",
	"HierAuto",
	"HierMode",
	"HierOff",
	"HierOn",
	"Hub",
	"Hub.Addr",
	"Hub.Close",
	"Hub.Done",
	"Hub.FailedRanks",
	"Hub.Wait",
	"HubFormationTimeout",
	"HubHeartbeat",
	"HubOption",
	"HubRecovery",
	"HubSuspicion",
	"IAllreduce",
	"InjectedFault",
	"InjectedFault.String",
	"JoinShm",
	"JoinTCP",
	"Max",
	"MessageCounter",
	"MessageCounter.Bytes",
	"MessageCounter.Pair",
	"MessageCounter.Reset",
	"MessageCounter.String",
	"MessageCounter.Tag",
	"MessageCounter.Total",
	"Min",
	"NewCart",
	"NewMessageCounter",
	"Number",
	"Op",
	"Op.String",
	"Option",
	"ProcNull",
	"Prod",
	"RankFailedError",
	"RankFailedError.Error",
	"RankFailedError.Is",
	"RankFailedError.Unwrap",
	"Reduce",
	"RejoinTCP",
	"Request",
	"Request.Wait",
	"Run",
	"RunShm",
	"RunTCP",
	"Scatter",
	"ShmSupported",
	"StartHub",
	"Status",
	"Status.String",
	"Sum",
	"Transport",
	"Waitall",
	"Win",
	"Win.Accumulate",
	"Win.Fence",
	"Win.Free",
	"Win.Get",
	"Win.Local",
	"Win.Lock",
	"Win.Put",
	"Win.Size",
	"Win.Unlock",
	"WinCreate",
	"WinElem",
	"WithComputeGate",
	"WithCounter",
	"WithDeadline",
	"WithFaultReport",
	"WithFaults",
	"WithHierarchy",
	"WithHubOptions",
	"WithNetwork",
	"WithProcessorNames",
	"WithRecovery",
	"WithRespawn",
	"WithTopology",
	"World",
}

package lint

import (
	"go/ast"
	"go/constant"
	"strings"
)

// PublishCheck enforces the body-before-header publication contract in the
// persistence paths (pmem, core, nvm): a header or CRC must never become
// durable while it vouches for body contents that are not.  Fault injection
// once caught exactly this — a snapshot install that published the pool
// header before the body was fenced, so a torn install could leave a valid
// header over missing contents.
//
// Two statically checkable shapes are flagged, each within one function:
//
//  1. header-then-body: a header publish (FlushHeader/flushHeader, or a
//     Flush whose range starts at offset 0 with a header-sized length)
//     followed by a body flush or write later in the same function — the
//     body was still in flight when the header was declared valid;
//  2. mixed flush: a single Flush whose range starts at the header (offset
//  0. with a non-header length, persisting header and body under one
//     fence — a seeded torn write-back can then keep the header granules
//     and lose body ones.
//
// The redo-log commit protocol intentionally seals its log header before
// flushing in-place data (the log IS the body there); that site documents
// itself with //ntalint:ignore publishcheck.
var PublishCheck = &Analyzer{
	Name:      "publishcheck",
	Doc:       "enforces body-before-header persistence ordering in pmem, core and nvm",
	SkipTests: true,
	Run:       runPublishCheck,
}

var publishPackages = map[string]bool{"pmem": true, "core": true, "nvm": true}

func runPublishCheck(pass *Pass) error {
	if !publishPackages[pkgTail(pass.PkgPath)] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPublishOrder(pass, fd)
		}
	}
	return nil
}

// event classifies the persistence-relevant calls of a function body in
// source order.
type persistEvent struct {
	call *ast.CallExpr
	kind int
}

const (
	evHeaderPublish = iota // FlushHeader / Flush(0, headerLen)
	evMixedFlush           // Flush(0, n) with non-header n
	evBodyFlush            // Flush at a non-header offset
	evBodyWrite            // WriteAt / accessor write
)

func checkPublishOrder(pass *Pass, fd *ast.FuncDecl) {
	var events []persistEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := classifyPersistCall(pass, call); ok {
			events = append(events, persistEvent{call: call, kind: kind})
		}
		return true
	})

	for i, ev := range events {
		switch ev.kind {
		case evMixedFlush:
			pass.Reportf(ev.call.Pos(), "flush range covers both header and body under one fence: persist the body first, then publish the header separately (torn write-back can keep the header and lose the body)")
		case evHeaderPublish:
			for _, later := range events[i+1:] {
				if later.kind == evBodyFlush || later.kind == evBodyWrite || later.kind == evMixedFlush {
					pass.Reportf(ev.call.Pos(), "header published before the body it vouches for is persisted: body flush/write follows later in this function (body-before-header, see pmem.HeaderSize)")
					break
				}
			}
		}
	}
}

// classifyPersistCall sorts a call into the event taxonomy.
func classifyPersistCall(pass *Pass, call *ast.CallExpr) (int, bool) {
	fn := methodOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || !persistPackages[pkgTail(fn.Pkg().Path())] {
		return 0, false
	}
	switch fn.Name() {
	case "FlushHeader", "flushHeader":
		return evHeaderPublish, true
	case "WriteAt", "WriteBytes":
		return evBodyWrite, true
	case "Flush":
		if len(call.Args) != 2 {
			return evBodyFlush, true
		}
		if !isZeroConst(pass, call.Args[0]) {
			return evBodyFlush, true
		}
		if isHeaderLen(pass, call.Args[1]) {
			return evHeaderPublish, true
		}
		// Flush(0, n) with a body-sized n.  On a device the offset is
		// absolute, so the range provably spans the header and the body; on
		// a sub-region accessor offset 0 is relative to an unknown base, so
		// the flush is classified as a body flush rather than risking a
		// false mixed-flush report.
		if recvIsDevice(pass, call) {
			return evMixedFlush, true
		}
		return evBodyFlush, true
	case "FlushAll":
		// Whole-region flush: header and body under one fence — unless the
		// accessor demonstrably excludes the header, which we cannot see, so
		// treat as mixed only when the receiver names a pool/device-rooted
		// accessor.  Conservatively classify as body flush: FlushAll is used
		// on sub-region accessors (tables) whose base is past the header.
		return evBodyFlush, true
	}
	return 0, false
}

// isZeroConst reports whether e is the constant 0.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

// isHeaderLen reports whether a flush length argument denotes a header-sized
// range: a small constant (headers here are 16–192 bytes; anything ≤ 512 is
// taken as one) or an expression whose spelling names a header ("headerSize",
// "HeaderSize", "logHeaderSize", "hdr", "opLogHeader").
func isHeaderLen(pass *Pass, e ast.Expr) bool {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		if v, ok := constant.Int64Val(tv.Value); ok {
			return v <= 512
		}
	}
	named := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			low := strings.ToLower(id.Name)
			if strings.Contains(low, "header") || low == "hdr" {
				named = true
			}
		}
		return !named
	})
	return named
}

// recvIsDevice reports whether the method call's receiver is a device (its
// type names Device), as opposed to a region accessor.
func recvIsDevice(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := pass.Info.Selections[sel]
	if s == nil {
		return false
	}
	return strings.Contains(s.Recv().String(), "Device")
}

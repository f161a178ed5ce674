package fs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"eevfs/internal/proto"
)

// protoTypes names every message type internal/proto declares, by value
// (names[i] is type i+1), read from its const block so that a type added
// there is seen here without a list to update.
func protoTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "proto", "proto.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || gd.Specs[0].(*ast.ValueSpec).Names[0].Name != "TError" {
			continue
		}
		for i, sp := range gd.Specs {
			vs := sp.(*ast.ValueSpec)
			if i > 0 && (len(vs.Values) > 0 || len(vs.Names) != 1) {
				t.Fatalf("%s breaks the iota run the message types are numbered by", vs.Names[0].Name)
			}
			names = append(names, vs.Names[0].Name)
		}
	}
	if len(names) < int(proto.TAccessResp) || names[proto.TError-1] != "TError" || names[proto.TAccessResp-1] != "TAccessResp" {
		t.Fatalf("read %d message types from proto.go, numbered unlike the package", len(names))
	}
	return names
}

// notRequests are the message types no daemon's table answers: every
// response, and the frames of a stream already open.
var notRequests = []proto.Type{
	proto.TError, proto.TCreateResp, proto.TLookupResp, proto.TListResp, proto.TDeleteResp,
	proto.TStatsResp, proto.TPrefetchResp, proto.TNodeCreateResp, proto.TNodeReadResp,
	proto.TNodeWriteResp, proto.TNodeDeleteResp, proto.TNodeStatsResp, proto.TNodePrefetchResp,
	proto.TNodeReadAtResp, proto.TNodeHintsResp, proto.TRepAppendResp, proto.TRepSnapshotResp,
	proto.TRepStatusResp, proto.TAccessResp,
	proto.TStreamOpenResp, proto.TDataFrame, proto.TStreamEnd, proto.TStreamAbort, proto.TStreamCredit,
}

// opTablesCover reports the first way the two daemons' tables fail to
// cover the declared message types: a type in neither table nor
// notRequests, or in more than one of the three, or a row for a type
// proto does not declare.
func opTablesCover(names []string, server, node *opTable) error {
	in := make(map[proto.Type]int)
	for _, t := range notRequests {
		in[t]++
	}
	for _, tbl := range []*opTable{server, node} {
		for t := range tbl.rows {
			if r := &tbl.rows[t]; r.rpc == nil && r.stream == nil {
				continue
			}
			if t == 0 || t > len(names) {
				return fmt.Errorf("the %s table has a row for type %d, which proto does not declare", tbl.prefix, t)
			}
			in[proto.Type(t)]++
		}
	}
	for i, name := range names {
		if n := in[proto.Type(i+1)]; n != 1 {
			return fmt.Errorf("%s is in %d of the server table, the node table and the non-requests, want 1", name, n)
		}
	}
	return nil
}

// TestOpTablesCoverEveryRequestType: every request type proto declares
// has a row in exactly one daemon's table, so each is answered and
// metered by construction; the check fails on a table with a row deleted
// or a row in both.
func TestOpTablesCoverEveryRequestType(t *testing.T) {
	names := protoTypes(t)
	server := newOpTable("server", nil, nil, (&Server{}).ops())
	node := newOpTable("node", nil, nil, (*Node)(nil).ops())
	if err := opTablesCover(names, server, node); err != nil {
		t.Fatal(err)
	}

	deleted := *server
	deleted.rows[proto.TLookupWriteReq] = op{}
	both := *node
	both.rows[proto.TLookupReq] = server.rows[proto.TLookupReq]
	for name, plant := range map[string][2]*opTable{"a row deleted": {&deleted, node}, "a row in both tables": {server, &both}} {
		if err := opTablesCover(names, plant[0], plant[1]); err == nil {
			t.Errorf("the check passes tables with %s", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

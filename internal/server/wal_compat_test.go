package server

import (
	"bytes"
	"encoding/base64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// floorEventWire is a stamped binary floor event for group "class"
// (GSeq 7, CSeq 3, state-bearing), base64 as the journal stores it.
const floorEventWire = "3wMJAAcDAQAABWNsYXNzDWVxdWFsX2NvbnRyb2wHYWxpY2UjMQdhbGljZSMxB2dyYW50ZWQAAQ=="

// TestWALReplaysExistingSegment replays a journal segment in the format
// nodes have been writing all along — one line of every record kind:
// next_id, member, event (a member log's and a group's), member_drop,
// group, floor and board_head — and checks the state it restores: the
// ID counter past every journaled ID, the surviving member homes and
// tokens, the dropped member gone with their token and log, the
// roster and chair, the floor state, the board head and the group
// log's event with its original sequence numbers.
func TestWALReplaysExistingSegment(t *testing.T) {
	member := func(id, name, role, prio, token string) string {
		return `{"kind":"member","key":"` + id + `","data":{"info":{"id":"` + id + `","name":"` + name +
			`","role":"` + role + `","priority":` + prio + `},"token":"` + token + `"}}`
	}
	info := func(id, name, role, prio string) string {
		return `{"id":"` + id + `","name":"` + name + `","role":"` + role + `","priority":` + prio + `}`
	}
	lines := []string{
		`{"kind":"next_id","gseq":4}`,
		member("ann#1", "Ann", "chair", "5", "tok-ann"),
		member("bea#2", "Bea", "participant", "3", "tok-bea"),
		member("dee#3", "Dee", "participant", "1", ""),
		member("cy#9", "Cy", "participant", "2", "tok-cy"),
		`{"kind":"event","key":"~cy#9","gseq":1,"cseq":1,"class":"invite","state":true,"wire_b":"` + floorEventWire + `"}`,
		`{"kind":"member_drop","key":"cy#9"}`,
		`{"kind":"group","key":"class","data":{"chair":"ann#1","members":[` +
			info("ann#1", "Ann", "chair", "5") + `,` + info("bea#2", "Bea", "participant", "3") + `,` +
			info("dee#3", "Dee", "participant", "1") + `]}}`,
		`{"kind":"floor","key":"class","data":{"mode":"equal-control","holder":"ann#1","queue":["bea#2"],"suspended":["dee#3"],"pinned":true}}`,
		`{"kind":"board_head","key":"class","gseq":5}`,
		`{"kind":"event","key":"class","gseq":7,"cseq":3,"class":"floor","state":true,"wire_b":"` + floorEventWire + `"}`,
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000.log"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Network: netsim.New(1), Addr: "wal:1", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.nextID.Load(); got != 9 {
		t.Errorf("next ID = %d, want 9 (past cy#9)", got)
	}
	for _, id := range []group.MemberID{"ann#1", "bea#2", "dee#3"} {
		if _, err := s.registry.Member(id); err != nil {
			t.Errorf("member %s: %v", id, err)
		}
	}
	if _, err := s.registry.Member("cy#9"); err == nil {
		t.Error("dropped member cy#9 restored")
	}
	s.mu.Lock()
	tokens := map[string]group.MemberID{}
	for tok, id := range s.tokens {
		tokens[tok] = id
	}
	s.mu.Unlock()
	if want := map[string]group.MemberID{"tok-ann": "ann#1", "tok-bea": "bea#2"}; !reflect.DeepEqual(tokens, want) {
		t.Errorf("tokens = %v, want %v", tokens, want)
	}
	if _, ok := s.logs.Peek("~cy#9"); ok {
		t.Error("dropped member's log restored")
	}
	if chair, err := s.registry.Chair("class"); err != nil || chair != "ann#1" {
		t.Errorf("chair = %q, %v", chair, err)
	}
	ids, err := s.registry.GroupMemberIDs("class")
	if want := []group.MemberID{"ann#1", "bea#2", "dee#3"}; err != nil || !reflect.DeepEqual(ids, want) {
		t.Errorf("roster = %v, %v; want %v", ids, err, want)
	}
	mode, holder, queue, suspended, pinned := s.floorCtl.StateSnapshot("class")
	if mode != floor.EqualControl || holder != "ann#1" || !reflect.DeepEqual(queue, []group.MemberID{"bea#2"}) ||
		!reflect.DeepEqual(suspended, []group.MemberID{"dee#3"}) || !pinned {
		t.Errorf("floor = %v holder %q queue %v suspended %v pinned %v", mode, holder, queue, suspended, pinned)
	}
	gb := s.board("class")
	gb.mu.Lock()
	head := gb.board.Seq()
	gb.mu.Unlock()
	if head != 5 {
		t.Errorf("board head = %d, want 5", head)
	}
	lg, ok := s.logs.Peek("class")
	if !ok {
		t.Fatal("group log not restored")
	}
	wire, _ := base64.StdEncoding.DecodeString(floorEventWire)
	dump := lg.Dump()
	if len(dump) != 1 || dump[0].GSeq != 7 || dump[0].CSeq != 3 || dump[0].Class != protocol.ClassFloor ||
		!dump[0].State || !bytes.Equal(dump[0].Wire, wire) {
		t.Errorf("group log = %+v", dump)
	}
}

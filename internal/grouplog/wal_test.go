package grouplog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmps/internal/protocol"
)

// boardFrame encodes a stamped board event the way the server logs it.
func boardFrame(t *testing.T, seq int64, text string) []byte {
	t.Helper()
	msg := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
		Seq: seq, Author: "alice#1", Kind: "text", Data: text,
	})
	msg.Group, msg.GSeq, msg.Class, msg.CSeq = "class", seq, protocol.ClassBoard, seq
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func replayAll(t *testing.T, dir string) []WALRecord {
	t.Helper()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []WALRecord
	if err := w.Replay(func(rec WALRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWALReplaysBinaryEventWire journals event records through both
// write paths — a checkpoint and a plain append — and requires replay to
// hand back every record with byte-identical binary wire bytes, stored
// under the wire_b key on disk.
func TestWALReplaysBinaryEventWire(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := []WALRecord{
		{Kind: WALEvent, Key: "class", GSeq: 1, CSeq: 1, Class: protocol.ClassBoard, Wire: boardFrame(t, 1, "one")},
		{Kind: WALBoardHead, Key: "class", GSeq: 1},
	}
	if err := w.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	appended := WALRecord{Kind: WALEvent, Key: "class", GSeq: 2, CSeq: 2, Class: protocol.ClassBoard, Wire: boardFrame(t, 2, "two")}
	if err := w.Append(appended); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want the checkpoint segment alone", segs, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"wire_b":`)) {
		t.Fatalf("segment does not carry wire bytes under wire_b:\n%s", raw)
	}

	got := replayAll(t, dir)
	want := append(append([]WALRecord{}, ckpt...), appended)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, want)
	}
	for _, rec := range got {
		if rec.Kind != WALEvent {
			continue
		}
		msg, err := protocol.DecodeBinary(rec.Wire)
		if err != nil || msg.GSeq != rec.GSeq {
			t.Fatalf("replayed wire gseq %d: %+v, %v", rec.GSeq, msg, err)
		}
	}
}

// TestWALReplaysOlderSegmentLine replays an event line written before
// the record had a single wire field, when binary frames already rode
// the base64 wire_b key: existing segments must keep replaying.
func TestWALReplaysOlderSegmentLine(t *testing.T) {
	const line = `{"kind":"event","key":"class","gseq":7,"cseq":3,"class":"floor","state":true,"wire_b":"3wMJAAcDAQAABWNsYXNzDWVxdWFsX2NvbnRyb2wHYWxpY2UjMQdhbGljZSMxB2dyYW50ZWQAAQ=="}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	rec := got[0]
	if rec.Kind != WALEvent || rec.Key != "class" || rec.GSeq != 7 || rec.CSeq != 3 || !rec.State {
		t.Fatalf("record = %+v", rec)
	}
	msg, err := protocol.DecodeBinary(rec.Wire)
	if err != nil {
		t.Fatal(err)
	}
	var body protocol.FloorEventBody
	if err := msg.Into(&body); err != nil {
		t.Fatal(err)
	}
	if msg.Type != protocol.TFloorEvent || msg.GSeq != 7 || msg.CSeq != 3 || !msg.State ||
		body.Holder != "alice#1" || body.Event != "granted" || body.QueueLen != 1 {
		t.Fatalf("decoded %+v body %+v", msg, body)
	}
}

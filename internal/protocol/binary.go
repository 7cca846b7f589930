// Binary wire framing (wire version WireBinary). The handshake speaks
// JSON; every frame after the welcome is one of these, in both
// directions, on client sessions, router upstreams and peer links
// alike. Inside the fleet there is only this framing: retained log
// bytes, replica stores, WAL records and TForward envelopes are all
// binary frames.
//
// Frame layout (the outer transport already delimits the frame, so no
// inner length prefix is needed; all lengths are uvarints that the
// decoder bounds against the remaining frame before use):
//
//	byte 0    binMagic (0xDF — invalid as leading JSON, so frames are
//	          self-describing)
//	byte 1    flags: bit0 = body is natively encoded (vs embedded JSON),
//	          bit1 = Message.State, bit2 = trace context present
//	byte 2    type code: index into AllTypes (append-only — codes are
//	          wire-significant)
//	uvarint   Seq, GSeq, CSeq (three uvarints)
//	byte      class code: 0 none, 1+i = AllClasses[i], classEscape =
//	          length-prefixed class string follows
//	lp-string From, To, Group (uvarint length + bytes each)
//	trace     only when bit2 is set: uvarint TraceID, uvarint
//	          TraceParent, 1 byte TraceFlags — the causal trace context
//	          of wire version 2
//	rest      body: native binary for the hot event types when bit0 is
//	          set, the body's JSON otherwise; empty = no body
//
// Hot types (SequencedBody, FloorEventBody, SuspendBody, ChatBody,
// AnnotateBody) get native body codecs; every other body rides as
// embedded JSON, which keeps the codec small where it doesn't pay.
// Decoding is zero-copy: envelope and native-body strings alias the
// frame buffer (via unsafe.String) and an embedded JSON body is a
// subslice — wire bytes are immutable once handed to a decoder.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"
)

// binMagic is the first byte of every binary frame. JSON frames start
// with '{' (0x7B), so one byte discriminates the two formats.
const binMagic = 0xDF

// Frame flag bits (byte 1).
const (
	flagNativeBody = 1 << 0 // body is natively encoded, not embedded JSON
	flagState      = 1 << 1 // Message.State
	flagTrace      = 1 << 2 // trace context follows the Group string (wire v2)
)

// classEscape marks a class string outside AllClasses, carried
// length-prefixed after the code byte.
const classEscape = 0xFF

// typeCodes maps a Type to its AllTypes index — the binary type code.
var typeCodes = func() map[Type]byte {
	m := make(map[Type]byte, len(AllTypes))
	for i, t := range AllTypes {
		m[t] = byte(i)
	}
	return m
}()

// classCodes maps a class to its 1-based AllClasses code.
var classCodes = func() map[string]byte {
	m := make(map[string]byte, len(AllClasses))
	for i, c := range AllClasses {
		m[c] = byte(1 + i)
	}
	return m
}()

// encScratch pools encode scratch buffers: a frame is built in pooled
// scratch and copied out at its exact size, so the steady-state encode
// path allocates once per message no matter how the frame grows.
var encScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// EncodeBinary serializes a message as one binary frame.
func EncodeBinary(m Message) ([]byte, error) {
	code, ok := typeCodes[m.Type]
	if !ok {
		return nil, fmt.Errorf("protocol: encode: unknown type %q", m.Type)
	}
	bp := encScratch.Get().(*[]byte)
	b := (*bp)[:0]
	var flags byte
	if m.State {
		flags |= flagState
	}
	b = append(b, binMagic, flags, code)
	b = binary.AppendUvarint(b, uint64(m.Seq))
	b = binary.AppendUvarint(b, uint64(m.GSeq))
	b = binary.AppendUvarint(b, uint64(m.CSeq))
	if m.Class == "" {
		b = append(b, 0)
	} else if cc, ok := classCodes[m.Class]; ok {
		b = append(b, cc)
	} else {
		b = append(b, classEscape)
		b = appendLPString(b, m.Class)
	}
	b = appendLPString(b, m.From)
	b = appendLPString(b, m.To)
	b = appendLPString(b, m.Group)
	if m.TraceID != 0 {
		b[1] |= flagTrace
		b = binary.AppendUvarint(b, m.TraceID)
		b = binary.AppendUvarint(b, m.TraceParent)
		b = append(b, m.TraceFlags)
	}
	b, err := appendBody(b, m) // may flip flagNativeBody in b[1]
	if err != nil {
		*bp = b
		encScratch.Put(bp)
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b
	encScratch.Put(bp)
	return out, nil
}

// appendBody appends the body: the retained native form if the frame
// was decoded natively, a native encoding when the typed body object is
// at hand, and the body's JSON otherwise. It flips flagNativeBody in
// b[1] for the native cases.
func appendBody(b []byte, m Message) ([]byte, error) {
	if m.bodyBin != nil {
		// Re-encoding a natively-decoded frame: the body bytes are
		// already in wire form.
		b[1] |= flagNativeBody
		return append(b, m.bodyBin...), nil
	}
	if m.bodyObj != nil && hasNativeCodec(m.Type) {
		// Native encode only when the MESSAGE TYPE owns a codec — the
		// decoder picks its reader by type, so a native flag on any other
		// type (an ack that happens to carry a SequencedBody, say) would
		// be unreadable on the far side.
		if nb, ok := appendNativeBody(b, m.bodyObj); ok {
			nb[1] |= flagNativeBody
			return nb, nil
		}
	}
	return append(b, m.Body...), nil
}

// appendNativeBody natively encodes the typed bodies that have a binary
// codec, reporting ok == false for everything else (which then rides as
// embedded JSON).
func appendNativeBody(b []byte, body any) ([]byte, bool) {
	switch v := body.(type) {
	case SequencedBody:
		return appendSequenced(b, v), true
	case *SequencedBody:
		return appendSequenced(b, *v), true
	case FloorEventBody:
		return appendFloorEvent(b, v), true
	case *FloorEventBody:
		return appendFloorEvent(b, *v), true
	case SuspendBody:
		return appendSuspend(b, v), true
	case *SuspendBody:
		return appendSuspend(b, *v), true
	case ChatBody:
		return appendLPString(b, v.Text), true
	case *ChatBody:
		return appendLPString(b, v.Text), true
	case AnnotateBody:
		return appendLPString(appendLPString(b, v.Kind), v.Data), true
	case *AnnotateBody:
		return appendLPString(appendLPString(b, v.Kind), v.Data), true
	}
	return b, false
}

func appendSequenced(b []byte, v SequencedBody) []byte {
	b = binary.AppendUvarint(b, uint64(v.Seq))
	b = appendLPString(b, v.Author)
	b = appendLPString(b, v.Kind)
	b = appendLPString(b, v.Data)
	b = binary.AppendUvarint(b, uint64(len(v.More)))
	for _, m := range v.More {
		b = appendSequenced(b, m)
	}
	return b
}

func appendFloorEvent(b []byte, v FloorEventBody) []byte {
	b = appendLPString(b, v.Mode)
	b = appendLPString(b, v.Holder)
	b = appendLPString(b, v.Member)
	b = appendLPString(b, v.Event)
	b = binary.AppendUvarint(b, uint64(v.QueuePosition))
	return binary.AppendUvarint(b, uint64(v.QueueLen))
}

func appendSuspend(b []byte, v SuspendBody) []byte {
	b = appendLPString(b, v.Member)
	b = appendLPString(b, v.Level)
	b = binary.AppendUvarint(b, uint64(len(v.Suspended)))
	for _, s := range v.Suspended {
		b = appendLPString(b, s)
	}
	return b
}

func appendLPString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeAny dispatches on the first byte: binary frames to
// DecodeBinary, everything else to the JSON Decode. It reads the first
// frame a server gets on a connection — a JSON hello or node_hello, or
// the binary forward that opens a peer link.
func DecodeAny(data []byte) (Message, error) {
	if IsBinaryFrame(data) {
		return DecodeBinary(data)
	}
	return Decode(data)
}

// IsBinaryFrame reports whether wire bytes are a binary frame (vs JSON).
func IsBinaryFrame(data []byte) bool {
	return len(data) > 0 && data[0] == binMagic
}

// FrameTrace peeks a binary frame's trace context without decoding the
// body: the envelope fields ahead of the extension are skipped with the
// same bounds-checked reader DecodeBinary uses, and nothing allocates.
// Frames without the extension — including every JSON frame — return
// the zero context, so the untraced fast path is two byte reads.
func FrameTrace(data []byte) (id, parent uint64, flags uint8) {
	if len(data) < 3 || data[0] != binMagic || data[1]&flagTrace == 0 {
		return 0, 0, 0
	}
	r := &frameReader{data: data, off: 3}
	for i := 0; i < 3; i++ { // Seq, GSeq, CSeq
		if _, err := r.uvarint(); err != nil {
			return 0, 0, 0
		}
	}
	cc, err := r.byteAt()
	if err != nil {
		return 0, 0, 0
	}
	if cc == classEscape {
		if _, err := r.lpBytes(); err != nil {
			return 0, 0, 0
		}
	}
	if err := skipStrings(r, 3); err != nil { // From, To, Group
		return 0, 0, 0
	}
	if id, err = r.uvarint(); err != nil {
		return 0, 0, 0
	}
	if parent, err = r.uvarint(); err != nil {
		return 0, 0, 0
	}
	fl, err := r.byteAt()
	if err != nil {
		return 0, 0, 0
	}
	return id, parent, fl
}

// frameReader walks a frame with bounds-checked reads: every length is
// validated against the remaining bytes before use, so a malformed or
// truncated frame errors without panicking or allocating ahead of its
// real size.
type frameReader struct {
	data []byte
	off  int
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrDecode)
	}
	r.off += n
	return v, nil
}

func (r *frameReader) byteAt() (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated frame", ErrDecode)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// lpBytes reads a length-prefixed byte run as a zero-copy subslice.
func (r *frameReader) lpBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: length %d exceeds frame", ErrDecode, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// lpString reads a length-prefixed string aliasing the frame buffer.
func (r *frameReader) lpString() (string, error) {
	b, err := r.lpBytes()
	if err != nil {
		return "", err
	}
	return zstring(b), nil
}

// zstring views bytes as a string without copying. Decoded messages
// alias their frame buffer; wire bytes are immutable once received, so
// the alias is safe for the life of the message.
func zstring(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeBinary parses one binary frame. The returned message aliases
// data (strings and body are subslices): callers must not mutate the
// buffer afterwards, which every transport already guarantees.
func DecodeBinary(data []byte) (Message, error) {
	if len(data) < 3 || data[0] != binMagic {
		return Message{}, fmt.Errorf("%w: not a binary frame", ErrDecode)
	}
	flags := data[1]
	code := int(data[2])
	if code >= len(AllTypes) {
		return Message{}, fmt.Errorf("%w: unknown type code %d", ErrDecode, code)
	}
	m := Message{Type: AllTypes[code], State: flags&flagState != 0}
	r := &frameReader{data: data, off: 3}
	var err error
	var u uint64
	if u, err = r.uvarint(); err != nil {
		return Message{}, err
	}
	m.Seq = int64(u)
	if u, err = r.uvarint(); err != nil {
		return Message{}, err
	}
	m.GSeq = int64(u)
	if u, err = r.uvarint(); err != nil {
		return Message{}, err
	}
	m.CSeq = int64(u)
	cc, err := r.byteAt()
	if err != nil {
		return Message{}, err
	}
	switch {
	case cc == 0:
	case cc == classEscape:
		if m.Class, err = r.lpString(); err != nil {
			return Message{}, err
		}
	case int(cc) <= len(AllClasses):
		m.Class = AllClasses[cc-1]
	default:
		return Message{}, fmt.Errorf("%w: unknown class code %d", ErrDecode, cc)
	}
	if m.From, err = r.lpString(); err != nil {
		return Message{}, err
	}
	if m.To, err = r.lpString(); err != nil {
		return Message{}, err
	}
	if m.Group, err = r.lpString(); err != nil {
		return Message{}, err
	}
	if flags&flagTrace != 0 {
		if m.TraceID, err = r.uvarint(); err != nil {
			return Message{}, err
		}
		if m.TraceParent, err = r.uvarint(); err != nil {
			return Message{}, err
		}
		if m.TraceFlags, err = r.byteAt(); err != nil {
			return Message{}, err
		}
	}
	body := data[r.off:]
	if flags&flagNativeBody != 0 {
		if len(body) == 0 {
			return Message{}, fmt.Errorf("%w: native-body flag on empty body", ErrDecode)
		}
		if !hasNativeCodec(m.Type) {
			return Message{}, fmt.Errorf("%w: native body on type %q", ErrDecode, m.Type)
		}
		if err := checkNativeBody(m.Type, body); err != nil {
			return Message{}, fmt.Errorf("%w: %s body: %v", ErrDecode, m.Type, err)
		}
		m.bodyBin = body
	} else if len(body) > 0 {
		if !json.Valid(body) {
			return Message{}, fmt.Errorf("%w: embedded body is not valid JSON", ErrDecode)
		}
		m.Body = json.RawMessage(body)
	}
	return m, nil
}

// hasNativeCodec reports whether a type's body has a native binary
// codec (the hot event/request types).
func hasNativeCodec(t Type) bool {
	switch t {
	case TChatEvent, TAnnotateEvent, TFloorEvent, TSuspend, TResume, TChat, TAnnotate:
		return true
	}
	return false
}

// checkNativeBody walks a native body without building anything: every
// length and count is bounds-checked and the walk must consume the body
// exactly, so a truncated or corrupt frame is rejected at the decode
// boundary (not later, at some Into call on another goroutine) and a
// hostile count can never size an allocation.
func checkNativeBody(t Type, body []byte) error {
	r := &frameReader{data: body}
	var err error
	switch t {
	case TChatEvent, TAnnotateEvent:
		err = skipSequenced(r)
	case TFloorEvent:
		err = skipStrings(r, 4)
		for i := 0; err == nil && i < 2; i++ {
			_, err = r.uvarint()
		}
	case TSuspend, TResume:
		if err = skipStrings(r, 2); err == nil {
			var n uint64
			if n, err = r.uvarint(); err == nil {
				if n > uint64(len(r.data)-r.off) {
					return fmt.Errorf("suspended count %d exceeds frame", n)
				}
				err = skipStrings(r, int(n))
			}
		}
	case TChat:
		err = skipStrings(r, 1)
	case TAnnotate:
		err = skipStrings(r, 2)
	}
	if err != nil {
		return err
	}
	if r.off != len(body) {
		return fmt.Errorf("%d trailing bytes", len(body)-r.off)
	}
	return nil
}

func skipStrings(r *frameReader, n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.lpBytes(); err != nil {
			return err
		}
	}
	return nil
}

func skipSequenced(r *frameReader) error {
	if _, err := r.uvarint(); err != nil {
		return err
	}
	if err := skipStrings(r, 3); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("more count %d exceeds frame", n)
	}
	for i := uint64(0); i < n; i++ {
		if err := skipSequenced(r); err != nil {
			return err
		}
	}
	return nil
}

// intoNative decodes a natively-encoded body into out, which must be a
// pointer to the type's body struct — the same contract Into has for
// JSON bodies.
func intoNative(t Type, body []byte, out any) error {
	r := &frameReader{data: body}
	var err error
	switch t {
	case TChatEvent, TAnnotateEvent:
		v, ok := out.(*SequencedBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *SequencedBody", ErrBodyMismatch, t)
		}
		err = readSequenced(r, v)
	case TFloorEvent:
		v, ok := out.(*FloorEventBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *FloorEventBody", ErrBodyMismatch, t)
		}
		err = readFloorEvent(r, v)
	case TSuspend, TResume:
		v, ok := out.(*SuspendBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *SuspendBody", ErrBodyMismatch, t)
		}
		err = readSuspend(r, v)
	case TChat:
		v, ok := out.(*ChatBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *ChatBody", ErrBodyMismatch, t)
		}
		v.Text, err = r.lpString()
	case TAnnotate:
		v, ok := out.(*AnnotateBody)
		if !ok {
			return fmt.Errorf("%w: %s: native body needs *AnnotateBody", ErrBodyMismatch, t)
		}
		if v.Kind, err = r.lpString(); err == nil {
			v.Data, err = r.lpString()
		}
	default:
		return fmt.Errorf("%w: %s has no native codec", ErrBodyMismatch, t)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBodyMismatch, t, err)
	}
	return nil
}

func readSequenced(r *frameReader, v *SequencedBody) error {
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	v.Seq = int64(u)
	if v.Author, err = r.lpString(); err != nil {
		return err
	}
	if v.Kind, err = r.lpString(); err != nil {
		return err
	}
	if v.Data, err = r.lpString(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Each More entry needs at least 4 bytes on the wire, so a count
	// beyond the remaining bytes is malformed — checked before the
	// allocation it would otherwise inflate.
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("more count %d exceeds frame", n)
	}
	v.More = make([]SequencedBody, n)
	for i := range v.More {
		if err := readSequenced(r, &v.More[i]); err != nil {
			return err
		}
	}
	return nil
}

func readFloorEvent(r *frameReader, v *FloorEventBody) error {
	var err error
	if v.Mode, err = r.lpString(); err != nil {
		return err
	}
	if v.Holder, err = r.lpString(); err != nil {
		return err
	}
	if v.Member, err = r.lpString(); err != nil {
		return err
	}
	if v.Event, err = r.lpString(); err != nil {
		return err
	}
	u, err := r.uvarint()
	if err != nil {
		return err
	}
	v.QueuePosition = int(int64(u))
	if u, err = r.uvarint(); err != nil {
		return err
	}
	v.QueueLen = int(int64(u))
	return nil
}

func readSuspend(r *frameReader, v *SuspendBody) error {
	var err error
	if v.Member, err = r.lpString(); err != nil {
		return err
	}
	if v.Level, err = r.lpString(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		return fmt.Errorf("suspended count %d exceeds frame", n)
	}
	v.Suspended = make([]string, n)
	for i := range v.Suspended {
		if v.Suspended[i], err = r.lpString(); err != nil {
			return err
		}
	}
	return nil
}

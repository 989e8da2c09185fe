package giop

import (
	"fmt"

	"maqs/internal/cdr"
)

// Well-known service context identifiers. Service contexts are the
// extension point the QoS framework uses to tag requests; the paper's
// "dual use" of the CORBA request (service-request vs. command) is
// realised by SCCommand, and QoS-awareness of a request by SCQoS.
const (
	// SCQoS marks a QoS-aware request. Payload (CDR encapsulation):
	// string characteristic, string bindingID.
	SCQoS uint32 = 0x4D515301 // "MQS\x01"
	// SCCommand marks a command to the QoS transport or one of its
	// modules. Payload (CDR encapsulation): string target module name
	// (empty string addresses the transport itself).
	SCCommand uint32 = 0x4D515302
	// SCModule names the QoS module a service request must be delivered
	// through. Payload: string module name.
	SCModule uint32 = 0x4D515303
	// SCTrace carries distributed trace context. Payload: the ASCII W3C
	// traceparent rendering of the sending span ("00-<trace>-<span>-<flags>",
	// see internal/obs), not CDR-encapsulated.
	SCTrace uint32 = 0x4D515304
	// SCTraceReturn rides reply headers in the opposite direction: the
	// server's compact span summaries for the traced request, so the
	// client assembles one end-to-end trace. Payload: CDR stream, see
	// internal/obs's span-return encoder. Size-bounded; absent when
	// tracing is off or the summaries exceed the budget.
	SCTraceReturn uint32 = 0x4D515305
)

// ServiceContext is an identified blob attached to request and reply
// headers.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// ServiceContextList is the ordered list of service contexts on a message.
type ServiceContextList []ServiceContext

// Get returns the data of the first context with the given id.
func (l ServiceContextList) Get(id uint32) ([]byte, bool) {
	for _, sc := range l {
		if sc.ID == id {
			return sc.Data, true
		}
	}
	return nil, false
}

// With returns a copy of the list with the given context appended,
// replacing any existing context with the same id.
func (l ServiceContextList) With(id uint32, data []byte) ServiceContextList {
	out := make(ServiceContextList, 0, len(l)+1)
	for _, sc := range l {
		if sc.ID != id {
			out = append(out, sc)
		}
	}
	return append(out, ServiceContext{ID: id, Data: data})
}

func (l ServiceContextList) marshal(e *cdr.Encoder) {
	e.WriteULong(uint32(len(l)))
	for _, sc := range l {
		e.WriteULong(sc.ID)
		e.WriteOctets(sc.Data)
	}
}

// readServiceContexts decodes a context list into list's backing array,
// growing it only when the message carries more contexts than it holds.
// Every Data aliases d's buffer.
func readServiceContexts(d *cdr.Decoder, list ServiceContextList) (ServiceContextList, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: reading service context count: %w", err)
	}
	if n > 1024 {
		return nil, fmt.Errorf("giop: %d service contexts exceeds limit", n)
	}
	if list == nil || uint32(cap(list)) < n {
		list = make(ServiceContextList, 0, n)
	}
	list = list[:0]
	for i := uint32(0); i < n; i++ {
		id, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("giop: reading service context id: %w", err)
		}
		data, err := d.ReadOctets()
		if err != nil {
			return nil, fmt.Errorf("giop: reading service context data: %w", err)
		}
		list = append(list, ServiceContext{ID: id, Data: data})
	}
	return list, nil
}

// detach replaces every Data by a copy of its own.
func (l ServiceContextList) detach() {
	for i := range l {
		l[i].Data = append([]byte{}, l[i].Data...)
	}
}

// RequestHeader is the header of a Request message.
type RequestHeader struct {
	Contexts         ServiceContextList
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
}

// Marshal writes the header onto e.
func (h *RequestHeader) Marshal(e *cdr.Encoder) {
	h.Contexts.marshal(e)
	e.WriteULong(h.RequestID)
	e.WriteBool(h.ResponseExpected)
	e.WriteOctets(h.ObjectKey)
	e.WriteString(h.Operation)
	e.WriteOctets(h.Principal)
}

// Unmarshal reads the header from d into h, overwriting every field.
// ObjectKey, Principal and every context's Data alias d's buffer — the
// per-connection read loop decodes into a reused struct and moves what the
// request keeps into the scratch buffer that already receives the
// arguments. Of h's previous content two things are reused instead of
// allocated again: the backing array of Contexts, and the Operation string
// when the message names the same operation.
func (h *RequestHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.Contexts, err = readServiceContexts(d, h.Contexts); err != nil {
		return err
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return fmt.Errorf("giop: reading request id: %w", err)
	}
	if h.ResponseExpected, err = d.ReadBool(); err != nil {
		return fmt.Errorf("giop: reading response flag: %w", err)
	}
	if h.ObjectKey, err = d.ReadOctets(); err != nil {
		return fmt.Errorf("giop: reading object key: %w", err)
	}
	if h.Operation, err = d.ReadStringReuse(h.Operation); err != nil {
		return fmt.Errorf("giop: reading operation: %w", err)
	}
	if h.Principal, err = d.ReadOctets(); err != nil {
		return fmt.Errorf("giop: reading principal: %w", err)
	}
	return nil
}

// UnmarshalRequestHeader reads a RequestHeader from d. The result shares
// nothing with d's buffer.
func UnmarshalRequestHeader(d *cdr.Decoder) (*RequestHeader, error) {
	var h RequestHeader
	if err := h.Unmarshal(d); err != nil {
		return nil, err
	}
	h.Contexts.detach()
	h.ObjectKey = append([]byte(nil), h.ObjectKey...)
	h.Principal = append([]byte(nil), h.Principal...)
	return &h, nil
}

// ReplyHeader is the header of a Reply message.
type ReplyHeader struct {
	Contexts  ServiceContextList
	RequestID uint32
	Status    ReplyStatus
}

// Marshal writes the header onto e.
func (h *ReplyHeader) Marshal(e *cdr.Encoder) {
	h.Contexts.marshal(e)
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// Unmarshal reads the header from d into h, overwriting every field; the
// read loop decodes into a stack value this way.
func (h *ReplyHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.Contexts, err = readServiceContexts(d, nil); err != nil {
		return err
	}
	h.Contexts.detach() // they outlive the read loop's body, in the Outcome
	if h.RequestID, err = d.ReadULong(); err != nil {
		return fmt.Errorf("giop: reading reply request id: %w", err)
	}
	status, err := d.ReadULong()
	if err != nil {
		return fmt.Errorf("giop: reading reply status: %w", err)
	}
	h.Status = ReplyStatus(status)
	return nil
}

// UnmarshalReplyHeader reads a ReplyHeader from d.
func UnmarshalReplyHeader(d *cdr.Decoder) (*ReplyHeader, error) {
	var h ReplyHeader
	if err := h.Unmarshal(d); err != nil {
		return nil, err
	}
	return &h, nil
}

// LocateRequestHeader is the header (and entire body) of a LocateRequest.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// Marshal writes the header onto e.
func (h *LocateRequestHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteOctets(h.ObjectKey)
}

// UnmarshalLocateRequestHeader reads a LocateRequestHeader from d.
func UnmarshalLocateRequestHeader(d *cdr.Decoder) (*LocateRequestHeader, error) {
	var h LocateRequestHeader
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("giop: reading locate request id: %w", err)
	}
	key, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("giop: reading locate object key: %w", err)
	}
	h.ObjectKey = append([]byte(nil), key...)
	return &h, nil
}

// LocateReplyHeader is the header (and entire body) of a LocateReply.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// Marshal writes the header onto e.
func (h *LocateReplyHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// UnmarshalLocateReplyHeader reads a LocateReplyHeader from d.
func UnmarshalLocateReplyHeader(d *cdr.Decoder) (*LocateReplyHeader, error) {
	var h LocateReplyHeader
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("giop: reading locate reply request id: %w", err)
	}
	status, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: reading locate reply status: %w", err)
	}
	h.Status = LocateStatus(status)
	return &h, nil
}

// CancelRequestHeader is the header (and entire body) of a CancelRequest.
type CancelRequestHeader struct {
	RequestID uint32
}

// Marshal writes the header onto e.
func (h *CancelRequestHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
}

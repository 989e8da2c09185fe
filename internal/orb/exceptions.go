package orb

import (
	"errors"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/ior"
)

// Standard system exception names. The set follows CORBA, extended with
// BAD_QOS for the QoS framework (raised e.g. when an operation of a
// non-negotiated QoS characteristic is invoked, per the paper's server
// side mapping).
const (
	ExcObjectNotExist = "OBJECT_NOT_EXIST"
	ExcBadOperation   = "BAD_OPERATION"
	ExcNoImplement    = "NO_IMPLEMENT"
	ExcCommFailure    = "COMM_FAILURE"
	ExcTransient      = "TRANSIENT"
	ExcMarshal        = "MARSHAL"
	ExcNoResources    = "NO_RESOURCES"
	ExcInternal       = "INTERNAL"
	ExcTimeout        = "TIMEOUT"
	ExcBadParam       = "BAD_PARAM"
	ExcBadQoS         = "BAD_QOS"
)

// SystemException is a broker-level failure, transported in a Reply with
// status SYSTEM_EXCEPTION.
type SystemException struct {
	// Name is one of the Exc* constants.
	Name string
	// Minor subdivides the exception for diagnostics.
	Minor uint32
	// Detail is a human-readable explanation.
	Detail string
}

// Error implements the error interface.
func (e *SystemException) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("orb: system exception %s (minor %d)", e.Name, e.Minor)
	}
	return fmt.Sprintf("orb: system exception %s (minor %d): %s", e.Name, e.Minor, e.Detail)
}

// Is makes errors.Is match two system exceptions by name.
func (e *SystemException) Is(target error) bool {
	var other *SystemException
	if errors.As(target, &other) {
		return e.Name == other.Name
	}
	return false
}

// NewSystemException constructs a system exception.
func NewSystemException(name string, minor uint32, format string, args ...any) *SystemException {
	return &SystemException{Name: name, Minor: minor, Detail: fmt.Sprintf(format, args...)}
}

// Marshal writes the exception as a reply body.
func (e *SystemException) Marshal(enc *cdr.Encoder) {
	enc.WriteString(e.Name)
	enc.WriteULong(e.Minor)
	enc.WriteString(e.Detail)
}

// unmarshalSystemException reads a system exception reply body.
func unmarshalSystemException(d *cdr.Decoder) (*SystemException, error) {
	name, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("orb: reading exception name: %w", err)
	}
	minor, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("orb: reading exception minor: %w", err)
	}
	detail, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("orb: reading exception detail: %w", err)
	}
	return &SystemException{Name: name, Minor: minor, Detail: detail}, nil
}

// ForwardRequest instructs the client to retry the invocation at another
// object (transported as a LOCATION_FORWARD reply). Servants return it to
// redirect clients — e.g. after an object migrated or a replica group
// changed its primary.
type ForwardRequest struct {
	// To is the new target.
	To *ior.IOR
}

// Error implements the error interface.
func (e *ForwardRequest) Error() string {
	return fmt.Sprintf("orb: forward request to %s", e.To.Profile.Addr())
}

// UserException is an application-declared exception, transported in a
// Reply with status USER_EXCEPTION. Data holds the CDR-encoded exception
// members (the generated code of the declaring interface interprets them).
type UserException struct {
	// RepoID identifies the exception type, e.g. "IDL:bank/Overdrawn:1.0".
	RepoID string
	// Data holds the CDR-encoded members.
	Data []byte
}

// Error implements the error interface.
func (e *UserException) Error() string {
	return fmt.Sprintf("orb: user exception %s", e.RepoID)
}

// Is makes errors.Is match two user exceptions by repository ID.
func (e *UserException) Is(target error) bool {
	var other *UserException
	if errors.As(target, &other) {
		return e.RepoID == other.RepoID
	}
	return false
}

// Marshal writes the exception as a reply body.
func (e *UserException) Marshal(enc *cdr.Encoder) {
	enc.WriteString(e.RepoID)
	enc.WriteOctets(e.Data)
}

// unmarshalUserException reads a user exception reply body.
func unmarshalUserException(d *cdr.Decoder) (*UserException, error) {
	id, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("orb: reading user exception id: %w", err)
	}
	data, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("orb: reading user exception data: %w", err)
	}
	return &UserException{RepoID: id, Data: append([]byte(nil), data...)}, nil
}

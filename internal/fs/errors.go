package fs

import (
	"errors"
	"strings"

	"eevfs/internal/proto"
)

// ErrNodeUnavailable marks operations refused (or failed) because the
// target storage node is unhealthy: partitioned, crashed, or repeatedly
// timing out. Callers check it with errors.Is; over the wire it travels
// as proto.CodeUnavailable and the client maps it back.
var ErrNodeUnavailable = errors.New("node unavailable")

// ErrFileNotFound marks requests naming an unknown file. Over the wire it
// travels as proto.CodeNotFound.
var ErrFileNotFound = errors.New("no such file")

// ErrNotPrimary marks client operations sent to a replication follower.
// Over the wire it travels as proto.CodeNotPrimary with a redirect to
// the address the follower believes is primary; the client retries
// there.
var ErrNotPrimary = errors.New("not the primary metadata server")

// Rejections one metadata server sends another (replog.go). Over the wire
// they travel as proto.CodeStaleEpoch and proto.CodeLogGap and the sender
// matches on the code; the text is for logs.
var (
	errStaleEpoch = errors.New("replication: stale epoch")
	errLogGap     = errors.New("replication: log gap")
)

// notPrimaryError is the server-side carrier for ErrNotPrimary: it holds
// the redirect hint that errorPayload puts on the wire.
type notPrimaryError struct {
	primary string // believed primary address; "" when unknown (election pending)
}

func (e *notPrimaryError) Error() string {
	if e.primary == "" {
		return "fs: not the primary metadata server (election pending)"
	}
	return "fs: not the primary metadata server; primary is " + e.primary
}

func (e *notPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// redirectHint extracts the primary-address hint from a (possibly
// wrapped) remote not-primary error.
func redirectHint(err error) string {
	var re *proto.RemoteError
	if errors.As(err, &re) {
		return re.Redirect
	}
	return ""
}

// isRemoteErr reports whether err is the peer's application-level
// failure (a typed proto.RemoteError — previously detected by slicing
// err.Error(), which broke on wrapped errors).
func isRemoteErr(err error) bool {
	var re *proto.RemoteError
	return errors.As(err, &re)
}

// isTransportErr reports whether err died below the application layer
// (dial failure, timeout, reset, short frame).
func isTransportErr(err error) bool {
	var te *proto.TransportError
	return errors.As(err, &te)
}

// errCode classifies an error for the wire.
func errCode(err error) proto.Code {
	var re *proto.RemoteError
	switch {
	case errors.Is(err, ErrNotPrimary):
		return proto.CodeNotPrimary
	case errors.Is(err, ErrNodeUnavailable):
		return proto.CodeUnavailable
	case errors.Is(err, ErrFileNotFound):
		return proto.CodeNotFound
	case errors.Is(err, errStaleEpoch):
		return proto.CodeStaleEpoch
	case errors.Is(err, errLogGap):
		return proto.CodeLogGap
	case errors.As(err, &re):
		return re.Code // forwarded node error keeps its classification
	default:
		return proto.CodeGeneric
	}
}

// mapRemote re-types a classified remote error so client-side callers can
// use errors.Is(err, ErrNodeUnavailable) / errors.Is(err, ErrFileNotFound)
// across the wire gap.
func mapRemote(err error) error {
	var re *proto.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch re.Code {
	case proto.CodeUnavailable:
		return &classifiedError{err: err, is: ErrNodeUnavailable}
	case proto.CodeNotFound:
		return &classifiedError{err: err, is: ErrFileNotFound}
	case proto.CodeNotPrimary:
		return &classifiedError{err: err, is: ErrNotPrimary}
	default:
		return err
	}
}

// classifiedError carries a remote error plus the sentinel it maps to.
type classifiedError struct {
	err error
	is  error
}

func (e *classifiedError) Error() string        { return e.err.Error() }
func (e *classifiedError) Unwrap() error        { return e.err }
func (e *classifiedError) Is(target error) bool { return target == e.is }

// errorPayload builds the TError frame body for err. Remote-error text is
// forwarded without re-prefixing ("remote: remote: ..." chains confuse
// more than they explain).
func errorPayload(err error) []byte {
	msg := err.Error()
	msg = strings.TrimPrefix(msg, "remote: ")
	var np *notPrimaryError
	var redirect string
	if errors.As(err, &np) {
		redirect = np.primary
	}
	return proto.ErrorMsg{Msg: msg, Code: errCode(err), Redirect: redirect}.Encode()
}

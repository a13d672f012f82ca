//! The Sun RPC call/reply message layer (RFC 1057 subset).
//!
//! Frames procedure calls for transport over [`crate::SimNet`]: a record
//! mark (so streams could be reassembled, as over TCP), then the standard
//! call header — XID, message type, RPC version, program, version,
//! procedure, and null credentials — then the XDR-encoded arguments the
//! stub marshalled. Replies carry the XID, an accept status, and results
//! (a `PROG_MISMATCH` refusal, the versions served); a call whose
//! credential the server cannot check is denied (`MSG_DENIED`,
//! [`encode_denial_into`]) instead of answered. A server that
//! marshals its results in place leaves [`REPLY_HDR_LEN`] bytes of room in
//! front of them and seals the header there ([`seal_reply`]).

use crate::NetError::Malformed;
use crate::Result;
use flexrpc_marshal::xdr::XdrReader;

/// Rounds `n` up to the XDR 4-byte boundary.
fn align_up4(n: usize) -> usize {
    n.next_multiple_of(4)
}

/// RPC message types.
const CALL: u32 = 0;
const REPLY: u32 = 1;
/// The only RPC protocol version RFC 1057 defines.
const RPC_VERS: u32 = 2;
/// Reply status: the call was accepted (and answered with an
/// [`AcceptStat`]) or denied.
const MSG_ACCEPTED: u32 = 0;
const MSG_DENIED: u32 = 1;
/// Reasons a call is denied.
const RPC_MISMATCH: u32 = 0;
const AUTH_ERROR: u32 = 1;
/// The last-fragment bit of a record mark; the other 31 are the length.
const LAST_FRAGMENT: u32 = 0x8000_0000;

/// Reply status codes (accepted-state subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// Call executed successfully.
    Success,
    /// Program number not served here.
    ProgUnavail,
    /// Program version not served.
    ProgMismatch,
    /// Procedure number unknown.
    ProcUnavail,
    /// Arguments undecodable.
    GarbageArgs,
    /// Server-side failure unrelated to the arguments (RFC 1057
    /// `SYSTEM_ERR`): the serving engine shed the call under load or
    /// cancelled it during drain.
    SystemErr,
}

impl AcceptStat {
    fn code(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProgMismatch => 2,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
            AcceptStat::SystemErr => 5,
        }
    }

    fn from_code(v: u32) -> Option<AcceptStat> {
        Some(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            _ => return None,
        })
    }
}

/// RFC 5531 `auth_stat`: why a server refused a call's credential or
/// verifier (`MSG_DENIED` / `AUTH_ERROR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthStat {
    /// `AUTH_BADCRED`: a credential of a known flavor that does not check.
    BadCred = 1,
    /// `AUTH_REJECTEDCRED`: the client must begin a new session. What
    /// libtirpc's `_authenticate` answers for a flavor it does not know,
    /// and what the servers here answer for any credential other than null
    /// and the at-most-once tag, `AUTH_SYS` included.
    RejectedCred = 2,
    /// `AUTH_BADVERF`: a verifier that does not check.
    BadVerf = 3,
    /// `AUTH_REJECTEDVERF`: an expired or replayed verifier.
    RejectedVerf = 4,
    /// `AUTH_TOOWEAK`: rejected for security reasons.
    TooWeak = 5,
    /// `AUTH_INVALIDRESP`: a bogus response verifier.
    InvalidResp = 6,
    /// `AUTH_FAILED`: some unknown reason.
    Failed = 7,
}

impl AuthStat {
    fn from_code(v: u32) -> Option<AuthStat> {
        use AuthStat::*;
        [BadCred, RejectedCred, BadVerf, RejectedVerf, TooWeak, InvalidResp, Failed]
            .into_iter()
            .find(|s| *s as u32 == v)
    }
}

/// Why a server denied a call (RFC 5531 `rejected_reply`), as a client
/// decodes it from a `MSG_DENIED` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Denial {
    /// `RPC_MISMATCH`: the server speaks RPC protocol versions `low..=high`
    /// only.
    RpcMismatch {
        /// Lowest version served.
        low: u32,
        /// Highest version served.
        high: u32,
    },
    /// `AUTH_ERROR`: the credential or verifier was refused.
    Auth(AuthStat),
}

/// A decoded call header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id (matches replies to calls).
    pub xid: u32,
    /// Program number (e.g. 100003 for NFS).
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc: u32,
}

/// Call header size after the record mark: XID, type, RPC version, prog,
/// vers, proc, plus four null credential/verifier words.
const CALL_HDR_WORDS: usize = 10;
/// Credential flavor carrying a flexrpc at-most-once call tag: 24 opaque
/// bytes of (client binding id, sequence number, tenant id), all
/// big-endian u64. Riding the RFC 1057 credential field keeps the tag out
/// of the argument bytes, so tagged and untagged frames decode with the
/// same body layout.
pub(crate) const CRED_FLAVOR_AMO: u32 = 0x464C_5250; // "FLRP"
/// Byte length of the at-most-once credential body.
const CRED_AMO_LEN: u32 = 24;
/// Reply header size after the record mark: XID, type, reply stat, null
/// verifier (2 words), accept stat.
const REPLY_HDR_WORDS: usize = 6;
/// Bytes in front of a reply's results, record mark included: the room a
/// server that marshals its results in place leaves for [`seal_reply`].
pub const REPLY_HDR_LEN: usize = 4 + REPLY_HDR_WORDS * 4;

/// Encodes a call message: record mark + header + `args`.
pub fn encode_call(hdr: CallHeader, args: &[u8]) -> Vec<u8> {
    encode_call_tagged(hdr, None, &[args])
}

/// Encodes a call message by gathering `parts` straight into an exact-size
/// frame, optionally carrying an at-most-once call tag `(binding id,
/// sequence number, tenant id)` in the credential field. `None` emits the
/// classic null-credential frame byte-for-byte.
///
/// Because every frame length is known before the first byte is written,
/// the record mark is computed up front (no placeholder-then-patch pass)
/// and the output vector is allocated once at its final size. Body slices —
/// typically a stub's marshalled message, or a header plus a borrowed
/// payload window — are spliced in place with no intermediate staging
/// buffer, which is the record-marking path's half of the paper's "marshal
/// directly into the transport buffer" discipline.
pub fn encode_call_tagged(
    hdr: CallHeader,
    tag: Option<(u64, u64, u64)>,
    parts: &[&[u8]],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(call_frame_len(tag.is_some(), parts));
    encode_call_tagged_into(&mut buf, hdr, tag, parts);
    buf
}

/// Exact on-wire length of a call frame (record mark included).
fn call_frame_len(tagged: bool, parts: &[&[u8]]) -> usize {
    let body: usize = parts.iter().map(|p| p.len()).sum();
    let cred_words = if tagged { CRED_AMO_LEN as usize / 4 } else { 0 };
    4 + (CALL_HDR_WORDS + cred_words) * 4 + align_up4(body)
}

/// Appends one record-marked call frame to `buf`. This is the batching
/// half of the gather discipline: a pipelining client encodes every
/// pending XID into one stream with no per-record staging vector, then
/// hands the whole stream to the transport as a single write.
pub fn encode_call_tagged_into(
    buf: &mut Vec<u8>,
    hdr: CallHeader,
    tag: Option<(u64, u64, u64)>,
    parts: &[&[u8]],
) {
    let total = call_frame_len(tag.is_some(), parts);
    let start = buf.len();
    buf.reserve(total);
    let mark = LAST_FRAGMENT | (total - 4) as u32;
    for word in [mark, hdr.xid, CALL, RPC_VERS, hdr.prog, hdr.vers, hdr.proc] {
        buf.extend_from_slice(&word.to_be_bytes());
    }
    match tag {
        // Null credentials and verifier (flavor 0, length 0), per RFC 1057.
        None => buf.extend_from_slice(&[0u8; 16]),
        Some((binding, seq, tenant)) => {
            buf.extend_from_slice(&CRED_FLAVOR_AMO.to_be_bytes());
            buf.extend_from_slice(&CRED_AMO_LEN.to_be_bytes());
            buf.extend_from_slice(&binding.to_be_bytes());
            buf.extend_from_slice(&seq.to_be_bytes());
            buf.extend_from_slice(&tenant.to_be_bytes());
            buf.extend_from_slice(&[0u8; 8]); // Null verifier.
        }
    }
    for p in parts {
        buf.extend_from_slice(p);
    }
    buf.resize(start + total, 0); // Trailing pad to the 4-byte record boundary.
}

/// Encodes a reply message — record mark + header + `results` — into an
/// exact-size frame; see [`encode_call_tagged`] for the
/// single-allocation/no-patch scheme.
pub fn encode_reply(xid: u32, stat: AcceptStat, results: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(REPLY_HDR_LEN + align_up4(results.len()));
    encode_reply_gather_into(&mut buf, xid, stat, &[results]);
    buf
}

/// Appends one record-marked reply frame to `buf` — the server-side
/// batching half: a pipelined acceptor encodes every reply of a batch
/// into one stream and sends it as a single message.
pub fn encode_reply_gather_into(buf: &mut Vec<u8>, xid: u32, stat: AcceptStat, parts: &[&[u8]]) {
    let body: usize = parts.iter().map(|p| p.len()).sum();
    let total = REPLY_HDR_LEN + align_up4(body);
    let start = buf.len();
    buf.reserve(total);
    buf.extend_from_slice(&reply_header(total, xid, stat));
    for p in parts {
        buf.extend_from_slice(p);
    }
    buf.resize(start + total, 0);
}

/// Seals in place a reply whose results were marshalled behind
/// [`REPLY_HDR_LEN`] bytes of room at the start of `frame`: pads the record
/// to whole words and patches the record mark, XID and `stat` into the
/// room. The frame is byte for byte what [`encode_reply_gather_into`]
/// appends for the same results, and no byte of the results moved.
///
/// # Panics
///
/// If `frame` is shorter than the room.
pub fn seal_reply(frame: &mut Vec<u8>, xid: u32, stat: AcceptStat) {
    assert!(frame.len() >= REPLY_HDR_LEN, "a reply frame starts with its header room");
    let total = align_up4(frame.len());
    frame.resize(total, 0);
    frame[..REPLY_HDR_LEN].copy_from_slice(&reply_header(total, xid, stat));
}

/// Appends the reply refusing call `xid` with `stat`, from a server that
/// serves version `vers` of the program and no other: RFC 5531's
/// `PROG_MISMATCH` carries the versions served, `mismatch_info { low, high }`,
/// behind its status; every other refusal carries nothing.
pub fn encode_refusal_into(buf: &mut Vec<u8>, xid: u32, stat: AcceptStat, vers: u32) {
    let mut info = [0u8; 8];
    info[..4].copy_from_slice(&vers.to_be_bytes());
    info[4..].copy_from_slice(&vers.to_be_bytes());
    let body: &[u8] = if stat == AcceptStat::ProgMismatch { &info } else { &[] };
    encode_reply_gather_into(buf, xid, stat, &[body]);
}

/// Appends the reply denying call `xid` for its credential: `MSG_DENIED`,
/// `AUTH_ERROR`, then `why`. A denied reply has no verifier.
pub fn encode_denial_into(buf: &mut Vec<u8>, xid: u32, why: AuthStat) {
    for word in [LAST_FRAGMENT | 20, xid, REPLY, MSG_DENIED, AUTH_ERROR, why as u32] {
        buf.extend_from_slice(&word.to_be_bytes());
    }
}

/// The record mark and header of an accepted reply whose record is `total`
/// bytes long, record mark included: `MSG_ACCEPTED`, then a null verifier,
/// then the accept status.
fn reply_header(total: usize, xid: u32, stat: AcceptStat) -> [u8; REPLY_HDR_LEN] {
    let mark = LAST_FRAGMENT | (total - 4) as u32;
    let mut hdr = [0u8; REPLY_HDR_LEN];
    let words = [mark, xid, REPLY, MSG_ACCEPTED, 0, 0, stat.code()];
    for (at, word) in hdr.chunks_exact_mut(4).zip(words) {
        at.copy_from_slice(&word.to_be_bytes());
    }
    hdr
}

/// The length a record mark declares for its record — calls, replies and
/// the records of a stream alike — refusing a mark without the
/// last-fragment bit: no encoder here fragments a record, and no decoder
/// reassembles one.
fn whole_record_len(mark: u32) -> Result<usize> {
    if mark & LAST_FRAGMENT == 0 {
        return Err(Malformed("fragmented records not supported"));
    }
    Ok((mark & !LAST_FRAGMENT) as usize)
}

/// A reader over `msg` past its record mark, once the mark is checked: the
/// message is one whole record, and a whole number of XDR words — every
/// encoder here pads to one, and a record that is not (its mark can say
/// so: the bytes are the peer's) is refused here, not read short later.
/// Inlining is forced: out of line, the `Result` of a reader went through
/// memory on every message.
#[inline(always)]
fn open_record(msg: &[u8]) -> Result<XdrReader<'_>> {
    let mut r = XdrReader::new(msg);
    let mark = r.get_u32().map_err(|_| Malformed("truncated record mark"))?;
    if whole_record_len(mark)? != msg.len() - 4 {
        return Err(Malformed("record mark length mismatch"));
    }
    if !msg.len().is_multiple_of(4) {
        return Err(Malformed("record is not a whole number of XDR words"));
    }
    Ok(r)
}

/// A decoded call: header, the credential's verdict — the at-most-once tag
/// `(binding id, sequence number, tenant id)` if it carries one, or why the
/// call is to be denied — and the argument bytes (none for a denied call).
pub type TaggedCall<'a> = (CallHeader, CallCredential, &'a [u8]);

/// What a call's credential says: `Ok` with the at-most-once tag it
/// carries, if any, or the [`AuthStat`] to deny the call with
/// ([`encode_denial_into`]).
pub type CallCredential = core::result::Result<Option<(u64, u64, u64)>, AuthStat>;

/// Decodes a call message, returning the header, the credential's verdict
/// and the argument bytes. The null credential and the at-most-once tag are
/// accepted; a call with any other credential decodes as far as its
/// header, to be denied: either flavor at another length is
/// [`AuthStat::BadCred`], any other flavor [`AuthStat::RejectedCred`].
pub fn decode_call_tagged(msg: &[u8]) -> Result<TaggedCall<'_>> {
    let mut r = open_record(msg)?;
    let xid = r.get_u32().map_err(|_| Malformed("truncated xid"))?;
    let mtype = r.get_u32().map_err(|_| Malformed("truncated msg type"))?;
    if mtype != CALL {
        return Err(Malformed("expected a call message"));
    }
    let rpcvers = r.get_u32().map_err(|_| Malformed("truncated rpc version"))?;
    if rpcvers != RPC_VERS {
        return Err(Malformed("unsupported RPC protocol version"));
    }
    let prog = r.get_u32().map_err(|_| Malformed("truncated prog"))?;
    let vers = r.get_u32().map_err(|_| Malformed("truncated vers"))?;
    let proc = r.get_u32().map_err(|_| Malformed("truncated proc"))?;
    let header = CallHeader { xid, prog, vers, proc };
    let cred_flavor = r.get_u32().map_err(|_| Malformed("truncated credentials"))?;
    let cred_len = r.get_u32().map_err(|_| Malformed("truncated credentials"))?;
    let tag = match (cred_flavor, cred_len) {
        (0, 0) => None,
        (CRED_FLAVOR_AMO, CRED_AMO_LEN) => {
            let binding = r.get_u64().map_err(|_| Malformed("truncated call tag"))?;
            let seq = r.get_u64().map_err(|_| Malformed("truncated call tag"))?;
            let tenant = r.get_u64().map_err(|_| Malformed("truncated call tag"))?;
            Some((binding, seq, tenant))
        }
        (0 | CRED_FLAVOR_AMO, _) => return Ok((header, Err(AuthStat::BadCred), &[])),
        _ => return Ok((header, Err(AuthStat::RejectedCred), &[])),
    };
    for non_null in ["non-null verf flavor not supported", "non-null verf length not supported"] {
        if r.get_u32().map_err(|_| Malformed("truncated verifier"))? != 0 {
            return Err(Malformed(non_null));
        }
    }
    // The rest of the record: whole words, as `open_record` checked.
    let args = &msg[r.position()..];
    Ok((header, Ok(tag), args))
}

/// Splits a stream of concatenated record-marked messages into individual
/// messages (each slice *includes* its record mark, so it feeds straight
/// into [`decode_call_tagged`]/[`decode_reply`]).
///
/// This is the receive half of call pipelining: a client with several
/// outstanding XIDs concatenates whole call records into one stream, and
/// the server peels them apart here — exactly how Sun RPC records stack up
/// in a TCP byte stream.
pub fn split_records(stream: &[u8]) -> Result<Vec<&[u8]>> {
    let mut records = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(Malformed("truncated record mark in stream"));
        }
        // Cannot fail: the length was checked just above.
        let len = whole_record_len(u32::from_be_bytes(rest[..4].try_into().expect("4 bytes")))?;
        if rest.len() < 4 + len {
            return Err(Malformed("record extends past end of stream"));
        }
        records.push(&rest[..4 + len]);
        rest = &rest[4 + len..];
    }
    Ok(records)
}

/// Decodes a reply message, returning the XID, status, and result bytes
/// (what follows a `PROG_MISMATCH` status's version range). A denied call
/// is [`NetError::Denied`](crate::NetError::Denied), with its reason.
pub fn decode_reply(msg: &[u8]) -> Result<(u32, AcceptStat, &[u8])> {
    let mut r = open_record(msg)?;
    let xid = r.get_u32().map_err(|_| Malformed("truncated xid"))?;
    let mtype = r.get_u32().map_err(|_| Malformed("truncated msg type"))?;
    if mtype != REPLY {
        return Err(Malformed("expected a reply message"));
    }
    match r.get_u32().map_err(|_| Malformed("truncated reply stat"))? {
        MSG_ACCEPTED => {}
        MSG_DENIED => return Err(crate::NetError::Denied(decode_denial(&mut r)?)),
        _ => return Err(Malformed("unknown reply status")),
    }
    let _verf_flavor = r.get_u32().map_err(|_| Malformed("truncated verifier"))?;
    let _verf_len = r.get_u32().map_err(|_| Malformed("truncated verifier"))?;
    let stat = AcceptStat::from_code(r.get_u32().map_err(|_| Malformed("truncated stat"))?)
        .ok_or(Malformed("unknown accept status"))?;
    if stat == AcceptStat::ProgMismatch {
        // `mismatch_info { low, high }`: the versions the server serves.
        for _ in 0..2 {
            r.get_u32().map_err(|_| Malformed("truncated mismatch info"))?;
        }
    }
    let results = &msg[r.position()..];
    Ok((xid, stat, results))
}

/// The body of a `MSG_DENIED` reply: the reason and what it carries.
fn decode_denial(r: &mut XdrReader<'_>) -> Result<Denial> {
    let mut word = || r.get_u32().map_err(|_| Malformed("truncated denial"));
    match word()? {
        RPC_MISMATCH => Ok(Denial::RpcMismatch { low: word()?, high: word()? }),
        AUTH_ERROR => {
            AuthStat::from_code(word()?).map(Denial::Auth).ok_or(Malformed("unknown auth status"))
        }
        _ => Err(Malformed("unknown reject status")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Header and arguments of a call, whatever its credential.
    fn decode_call(msg: &[u8]) -> Result<(CallHeader, &[u8])> {
        decode_call_tagged(msg).map(|(hdr, _tag, args)| (hdr, args))
    }

    #[test]
    fn call_roundtrip() {
        let hdr = CallHeader { xid: 77, prog: 100003, vers: 2, proc: 6 };
        let msg = encode_call(hdr, b"args-bytes!!");
        let (got, args) = decode_call(&msg).unwrap();
        assert_eq!(got, hdr);
        assert_eq!(args, b"args-bytes!!");
    }

    #[test]
    fn reply_roundtrip() {
        let msg = encode_reply(77, AcceptStat::Success, &[1, 2, 3, 4]);
        let (xid, stat, results) = decode_reply(&msg).unwrap();
        assert_eq!(xid, 77);
        assert_eq!(stat, AcceptStat::Success);
        assert_eq!(results, &[1, 2, 3, 4]);
    }

    #[test]
    fn record_mark_carries_length() {
        let msg = encode_call(CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 }, &[]);
        let mark = u32::from_be_bytes(msg[..4].try_into().unwrap());
        assert_ne!(mark & 0x8000_0000, 0, "last-fragment bit");
        assert_eq!((mark & 0x7FFF_FFFF) as usize, msg.len() - 4);
    }

    #[test]
    fn corrupted_record_mark_rejected() {
        let mut msg = encode_call(CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 }, b"x");
        msg[3] ^= 0xFF;
        assert!(decode_call(&msg).is_err());
    }

    /// A reply is a record too: all three decoders refuse a mark without
    /// the last-fragment bit, with the same typed error.
    #[test]
    fn fragmented_record_refused_by_every_decoder() {
        let clear_last_fragment = |mut frame: Vec<u8>| {
            frame[0] &= 0x7F;
            frame
        };
        let call = clear_last_fragment(encode_call(
            CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 },
            b"args",
        ));
        let reply = clear_last_fragment(encode_reply(1, AcceptStat::Success, b"results!"));
        let refusals = [
            decode_call(&call).unwrap_err(),
            decode_reply(&reply).unwrap_err(),
            split_records(&reply).unwrap_err(),
        ];
        for e in refusals {
            assert_eq!(e, Malformed("fragmented records not supported"));
        }
    }

    #[test]
    fn wrong_message_type_rejected() {
        let call = encode_call(CallHeader { xid: 5, prog: 1, vers: 1, proc: 0 }, &[]);
        assert!(decode_reply(&call).is_err());
        let reply = encode_reply(5, AcceptStat::Success, &[]);
        assert!(decode_call(&reply).is_err());
    }

    #[test]
    fn error_statuses_roundtrip() {
        for stat in [
            AcceptStat::ProgUnavail,
            AcceptStat::ProgMismatch,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let mut msg = Vec::new();
            encode_refusal_into(&mut msg, 9, stat, 2);
            let (_, got, results) = decode_reply(&msg).unwrap();
            assert_eq!((got, results), (stat, &[][..]));
            if stat != AcceptStat::ProgMismatch {
                assert_eq!(msg, encode_reply(9, stat, &[]), "{stat:?}: the status alone");
            }
        }
    }

    /// RFC 5531: `PROG_MISMATCH` is followed by `mismatch_info { low, high }`
    /// — mark + 8 words, as libtirpc's `xdr_replymsg` reads it — and a
    /// reply cut anywhere inside that range is malformed, not a refusal.
    #[test]
    fn a_version_mismatch_carries_the_served_range() {
        let mut msg = Vec::new();
        encode_refusal_into(&mut msg, 9, AcceptStat::ProgMismatch, 3);
        let words: Vec<u32> =
            msg.chunks_exact(4).map(|w| u32::from_be_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0x8000_0020, 9, REPLY, 0, 0, 0, 2, 3, 3]);
        for cut in [4, 8] {
            let mut short = msg[..msg.len() - cut].to_vec();
            let mark = LAST_FRAGMENT | (short.len() - 4) as u32;
            short[..4].copy_from_slice(&mark.to_be_bytes());
            assert_eq!(decode_reply(&short).unwrap_err(), Malformed("truncated mismatch info"));
        }
    }

    /// A reply marshalled behind the header room and sealed there is the
    /// frame the gather encoder builds from the same results, at every pad
    /// length, and its results did not move.
    #[test]
    fn a_reply_sealed_in_place_is_the_gathered_frame() {
        for len in 0..9usize {
            let results: Vec<u8> = (1..=len as u8).collect();
            let mut frame = vec![0xEE; REPLY_HDR_LEN];
            frame.extend_from_slice(&results);
            let at = frame[REPLY_HDR_LEN..].as_ptr();
            seal_reply(&mut frame, 41, AcceptStat::Success);
            assert_eq!(frame, encode_reply(41, AcceptStat::Success, &results), "{len} bytes");
            assert_eq!(frame[REPLY_HDR_LEN..].as_ptr(), at, "sealed where it was written");
        }
    }

    #[test]
    #[should_panic(expected = "header room")]
    fn sealing_a_frame_without_its_header_room_is_a_bug() {
        seal_reply(&mut vec![0; REPLY_HDR_LEN - 4], 1, AcceptStat::Success);
    }

    #[test]
    fn truncated_messages_rejected_not_panicking() {
        let msg = encode_call(CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 }, b"abc");
        for cut in 0..msg.len() {
            let _ = decode_call(&msg[..cut]);
        }
    }

    #[test]
    fn record_stream_splits_back_into_messages() {
        let calls: Vec<Vec<u8>> = (0..5u32)
            .map(|i| {
                encode_call(
                    CallHeader { xid: 100 + i, prog: 7, vers: 1, proc: i },
                    &vec![i as u8; i as usize * 4],
                )
            })
            .collect();
        let stream: Vec<u8> = calls.iter().flatten().copied().collect();
        let records = split_records(&stream).unwrap();
        assert_eq!(records.len(), 5);
        for (i, rec) in records.iter().enumerate() {
            let (hdr, args) = decode_call(rec).unwrap();
            assert_eq!(hdr.xid, 100 + i as u32);
            assert_eq!(args.len(), i * 4);
        }
        assert!(split_records(&stream[..stream.len() - 1]).is_err(), "short tail");
        assert!(split_records(&[0x80]).is_err(), "truncated mark");
        assert_eq!(split_records(&[]).unwrap().len(), 0, "empty stream");
    }

    #[test]
    fn gather_encode_matches_single_buffer_encode() {
        let hdr = CallHeader { xid: 3, prog: 100003, vers: 2, proc: 6 };
        let whole = b"headerbytes-payload".to_vec();
        let gathered = encode_call_tagged(hdr, None, &[&whole[..12], &whole[12..]]);
        assert_eq!(gathered, encode_call(hdr, &whole));
        let mut reply = Vec::new();
        encode_reply_gather_into(&mut reply, 3, AcceptStat::Success, &[&whole[..12], &whole[12..]]);
        assert_eq!(reply, encode_reply(3, AcceptStat::Success, &whole));
    }

    #[test]
    fn gather_encode_allocates_exact_size() {
        // Unaligned body: 19 bytes pads to 20; frame lands in a single
        // exactly-sized allocation with no placeholder patching.
        let hdr = CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 };
        let call = encode_call(hdr, &[7u8; 19]);
        assert_eq!(call.len(), call.capacity(), "no growth reallocation");
        assert_eq!(call.len(), 4 + 40 + 20);
        let (got, args) = decode_call(&call).unwrap();
        assert_eq!(got, hdr);
        assert_eq!(&args[..19], &[7u8; 19]);
        assert_eq!(&args[19..], &[0], "trailing record pad");

        let reply = encode_reply(1, AcceptStat::Success, &[9u8; 5]);
        assert_eq!(reply.len(), reply.capacity());
        assert_eq!(reply.len(), 4 + 24 + 8);
    }

    #[test]
    fn append_encoders_build_a_splittable_stream() {
        // Batch three calls and two replies into single streams with the
        // `_into` variants; the result must be byte-identical to the
        // concatenation of the one-frame encoders, and must split back.
        let mut calls = Vec::new();
        let mut expect = Vec::new();
        for i in 0..3u32 {
            let hdr = CallHeader { xid: 50 + i, prog: 7, vers: 1, proc: i };
            let tag = (i == 1).then_some((11u64, i as u64, 2u64));
            let body = vec![i as u8; 5 + i as usize];
            encode_call_tagged_into(&mut calls, hdr, tag, &[b"hdr", &body]);
            expect.extend_from_slice(&encode_call_tagged(hdr, tag, &[b"hdr", &body]));
        }
        assert_eq!(calls, expect);
        assert_eq!(split_records(&calls).unwrap().len(), 3);

        let mut replies = Vec::new();
        let mut expect = Vec::new();
        for i in 0..2u32 {
            encode_reply_gather_into(&mut replies, 50 + i, AcceptStat::Success, &[&[i as u8; 9]]);
            expect.extend_from_slice(&encode_reply(50 + i, AcceptStat::Success, &[i as u8; 9]));
        }
        assert_eq!(replies, expect);
        let records = split_records(&replies).unwrap();
        assert_eq!(records.len(), 2);
        for (i, rec) in records.iter().enumerate() {
            let (xid, stat, results) = decode_reply(rec).unwrap();
            assert_eq!(xid, 50 + i as u32);
            assert_eq!(stat, AcceptStat::Success);
            assert_eq!(&results[..9], &[i as u8; 9]);
        }
    }

    #[test]
    fn tagged_call_roundtrips_binding_and_seq() {
        let hdr = CallHeader { xid: 9, prog: 100003, vers: 2, proc: 1 };
        let msg = encode_call_tagged(hdr, Some((0xDEAD_BEEF_0000_0001, 42, 7)), &[b"payload"]);
        let (got, tag, args) = decode_call_tagged(&msg).unwrap();
        assert_eq!(got, hdr);
        assert_eq!(tag, Ok(Some((0xDEAD_BEEF_0000_0001, 42, 7))));
        assert_eq!(&args[..7], b"payload");
    }

    #[test]
    fn legacy_16_byte_credential_is_a_bad_credential() {
        let hdr = CallHeader { xid: 9, prog: 100003, vers: 2, proc: 1 };
        // Hand-build a pre-tenancy frame: flavor FLRP, 16-byte body. No
        // encoder emits it; it is denied like any other unknown length.
        let body = b"payload";
        let padded = body.len().next_multiple_of(4);
        let total = 4 + (10 + 4) * 4 + padded;
        let mut msg = Vec::new();
        let mark = 0x8000_0000u32 | (total - 4) as u32;
        for word in [mark, hdr.xid, 0, 2, hdr.prog, hdr.vers, hdr.proc] {
            msg.extend_from_slice(&word.to_be_bytes());
        }
        msg.extend_from_slice(&CRED_FLAVOR_AMO.to_be_bytes());
        msg.extend_from_slice(&16u32.to_be_bytes());
        msg.extend_from_slice(&77u64.to_be_bytes());
        msg.extend_from_slice(&3u64.to_be_bytes());
        msg.extend_from_slice(&[0u8; 8]); // Null verifier.
        msg.extend_from_slice(body);
        msg.resize(total, 0);
        assert_eq!(decode_call_tagged(&msg).unwrap(), (hdr, Err(AuthStat::BadCred), &[][..]));
    }

    #[test]
    fn untagged_encode_is_byte_identical_to_classic() {
        let hdr = CallHeader { xid: 3, prog: 7, vers: 1, proc: 2 };
        assert_eq!(encode_call_tagged(hdr, None, &[b"abc"]), encode_call(hdr, b"abc"));
        let (_, tag, _) = decode_call_tagged(&encode_call(hdr, b"abc")).unwrap();
        assert_eq!(tag, Ok(None));
    }

    #[test]
    fn an_unknown_credential_flavor_is_denied_as_rejected() {
        let hdr = CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 };
        let mut msg = encode_call(hdr, &[]);
        // Patch the cred flavor word (offset: mark + 6 header words).
        let off = 4 + 6 * 4;
        msg[off..off + 4].copy_from_slice(&0x1234_5678u32.to_be_bytes());
        assert_eq!(decode_call_tagged(&msg).unwrap(), (hdr, Err(AuthStat::RejectedCred), &[][..]));
    }

    /// RFC 5531's `rejected_reply`: both reasons decode typed, and what
    /// [`encode_denial_into`] frames is the `AUTH_ERROR` one.
    #[test]
    fn denied_replies_decode_typed() {
        let mut denial = Vec::new();
        encode_denial_into(&mut denial, 5, AuthStat::RejectedCred);
        let words = [0x8000_0014, 5, REPLY, MSG_DENIED, AUTH_ERROR, 2];
        assert_eq!(denial, words.iter().flat_map(|w: &u32| w.to_be_bytes()).collect::<Vec<_>>());
        let denied = |why| Err(crate::NetError::Denied(why));
        assert_eq!(decode_reply(&denial), denied(Denial::Auth(AuthStat::RejectedCred)));
        let mismatch: Vec<u8> = [0x8000_0018u32, 5, REPLY, MSG_DENIED, RPC_MISMATCH, 2, 2]
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .collect();
        assert_eq!(decode_reply(&mismatch), denied(Denial::RpcMismatch { low: 2, high: 2 }));
        for cut in [4, 8] {
            let short = &mut denial.clone();
            short.truncate(denial.len() - cut);
            short[..4].copy_from_slice(&(0x8000_0014u32 - cut as u32).to_be_bytes());
            assert_eq!(decode_reply(short), Err(Malformed("truncated denial")));
        }
        denial[23] = 99;
        assert_eq!(decode_reply(&denial), Err(Malformed("unknown auth status")));
    }

    #[test]
    fn args_are_borrowed_from_message() {
        let msg = encode_call(CallHeader { xid: 1, prog: 2, vers: 3, proc: 4 }, &[9; 64]);
        let (_, args) = decode_call(&msg).unwrap();
        let base = msg.as_ptr() as usize;
        let p = args.as_ptr() as usize;
        assert!(p >= base && p < base + msg.len(), "zero-copy args view");
    }
}

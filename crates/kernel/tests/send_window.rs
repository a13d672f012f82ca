//! The connection's send window, audited with a counting allocator: a
//! handler that builds its reply body in [`MsgIn::reply`] and returns it as
//! [`MsgOut::body`] gets the same buffer back on the next call, so a
//! connection's replies cost one allocation, however many calls it serves.

#[path = "../../runtime/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::counted;
use flexrpc_kernel::ipc::{BindOptions, MsgIn, MsgOut, ServerOptions};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::Kernel;

#[test]
fn an_echo_built_in_the_send_window_allocates_once_over_many_calls() {
    const CALLS: usize = 100;
    let k = Kernel::new();
    let client = k.create_task("client", 4096).expect("task");
    let server = k.create_task("server", 4096).expect("task");
    let port = k.port_allocate(server).expect("port");
    // Direct receive: the handler reads the request in place, so the
    // receive window's first fill is not counted beside the send window's.
    let options = ServerOptions { direct_receive: true, ..Default::default() };
    k.register_server(server, port, options, |_k, m: MsgIn<'_>| {
        let mut body = m.reply;
        body.extend_from_slice(m.body);
        Ok(MsgOut { regs: m.regs, body, rights: m.rights })
    })
    .expect("registers");
    let send = k.extract_send_right(server, port, client).expect("send right");
    let conn = k.ipc_bind(client, send, BindOptions::default()).expect("binds");
    let request = [0x5Au8; 512];
    let mut reply = Vec::with_capacity(request.len());

    let before = k.stats().snapshot();
    let (blocks, ()) = counted(|| {
        for _ in 0..CALLS {
            k.ipc_call_into(&conn, [0; MSG_REGS], &request, &[], &mut reply).expect("call");
            assert_eq!(reply, request, "the echo came back");
        }
    });
    assert_eq!(blocks, 1, "{CALLS} echoes: the send window, once");
    let d = k.stats().snapshot().since(&before);
    assert_eq!(d.bytes_copied_user_to_user, (CALLS * request.len()) as u64, "the reply copies");
}

//! Hostile input: no frame a client sends may take `diablod` down.
//!
//! Each reproducer goes to an in-process [`Server`]; the server must
//! answer it with an error reply and keep serving (a later `ping` still
//! answers).

use std::net::TcpStream;

use diablo_dataflow::Context;
use diablo_serve::proto::{read_frame, write_frame, MAGIC};
use diablo_serve::{Client, Response, ServeConfig, Server};

/// Sends one raw request payload on a fresh connection and decodes the
/// reply.
fn send_raw(addr: &str, payload: &[u8]) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, payload).expect("write frame");
    let reply = read_frame(&mut conn)
        .expect("read reply")
        .expect("the server answered instead of dropping the connection");
    Response::decode(&reply).expect("reply decodes")
}

#[test]
fn deeply_nested_values_are_rejected_and_the_server_keeps_serving() {
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();

    // A `BindDataset` request whose one row is 200,000 nested 1-tuples
    // around a long: about 1 MB of frame, deep enough to overflow an
    // unbounded recursive decoder's stack and abort the whole daemon.
    let mut payload = vec![MAGIC, 2];
    let name = b"deep";
    payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
    payload.extend_from_slice(name);
    payload.extend_from_slice(&1u32.to_le_bytes());
    for _ in 0..200_000 {
        payload.extend_from_slice(&[5, 1, 0, 0, 0]);
    }
    payload.push(2);
    payload.extend_from_slice(&7i64.to_le_bytes());

    match send_raw(&addr, &payload) {
        Response::Error { message } => {
            assert!(message.contains("corrupt"), "{message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    let mut client = Client::connect(&addr).expect("reconnect");
    client.ping().expect("the server still answers ping");
    server.stop();
}

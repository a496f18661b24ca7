//! Pipelined opens at the gateway: a client that writes many opens before
//! reading gets an answer to every one, and the redirect counter counts
//! exactly the redirects written.

use avoc_gateway::{Gateway, GatewayConfig, Member};
use avoc_net::reactor::{DecodeStep, StreamDecoder};
use avoc_net::{Message, SpecSource};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Two hundred opens in one write to a one-member gateway get two hundred
/// `Redirect`s, in order, and `avoc_gateway_redirects_answered_total`
/// reads 200.
#[test]
fn every_pipelined_open_gets_its_redirect() {
    const OPENS: u64 = 200;
    let gateway = Gateway::start(
        "127.0.0.1:0",
        GatewayConfig {
            members: vec![Member {
                node: 1,
                addr: "127.0.0.1:1".into(),
                admin: None,
            }],
            ..GatewayConfig::default()
        },
    )
    .expect("gateway starts");
    let mut wire = Vec::new();
    for session in 0..OPENS {
        let open = Message::OpenSession {
            session,
            modules: 3,
            spec: SpecSource::Named("avoc".into()),
        };
        wire.extend_from_slice(&open.encode());
    }
    let mut conn = TcpStream::connect(gateway.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    conn.write_all(&wire).expect("one write");

    let mut redirected = Vec::new();
    let mut decoder = StreamDecoder::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    while (redirected.len() as u64) < OPENS && Instant::now() < deadline {
        let n = match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => continue, // read timeout: poll again until the deadline
        };
        decoder.extend(&chunk[..n]);
        while let DecodeStep::Frame(msg) = decoder.next_frame() {
            match msg {
                Message::Redirect { session, addr, .. } => {
                    assert_eq!(addr, "127.0.0.1:1");
                    redirected.push(session);
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }
    let expected: Vec<u64> = (0..OPENS).collect();
    assert_eq!(redirected, expected, "every open is answered, in order");
    let text = gateway.registry().render_prometheus();
    assert_eq!(
        avoc_obs::rollup::sample_value(&text, "avoc_gateway_redirects_answered_total"),
        Some(OPENS as f64),
        "the counter counts the redirects written"
    );
    drop(conn);
    gateway.shutdown();
}

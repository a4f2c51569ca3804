//! Fault injection for the serving frontend and engine backpressure.
//!
//! The socket tests play a misbehaving client against a live TCP server
//! and assert the failure is *contained*: the offender gets a structured
//! wire error (or a disconnect), the process neither panics nor grows
//! without bound, and well-behaved clients keep getting correct answers.
//! The `wire_fuzz` proptests drive the same containment below the socket:
//! generated hostile lines go straight through the line framer and
//! `wire::handle_line`.

use mei_core::{MultiEmbedModel, WeightPreset};
use mei_kg::TripleStore;
use mei_obs::json::parse;
use mei_obs::JsonValue;
use mei_serve::{Engine, ServeConfig, Server, ServerConfig, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(config: ServeConfig) -> Arc<Engine> {
    let mut rng = StdRng::seed_from_u64(11);
    let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 20, 3, 4, &mut rng);
    Arc::new(Engine::start(Snapshot::with_ids(model, TripleStore::new()), config))
}

fn server(engine: Arc<Engine>, server_config: ServerConfig) -> Server {
    Server::start_with(engine, "127.0.0.1:0", server_config).unwrap()
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn read_response(stream: &TcpStream) -> JsonValue {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    parse(line.trim_end()).unwrap()
}

fn kind_of(v: &JsonValue) -> Option<&str> {
    v.get("kind").and_then(|k| k.as_str())
}

#[test]
fn garbage_bytes_get_a_structured_error_and_the_connection_survives() {
    let mut server = server(engine(ServeConfig::default()), ServerConfig::default());
    let mut client = TcpStream::connect(server.local_addr()).unwrap();

    // Binary junk that is not even UTF-8, followed by a newline.
    client.write_all(b"\x00\xff\xfe{{{[[not json\n").unwrap();
    client.flush().unwrap();
    let response = read_response(&client);
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(kind_of(&response), Some("bad_request"));

    // Same connection, a valid request right after: must still work.
    send_line(&mut client, r#"{"op":"ping"}"#);
    let pong = read_response(&client);
    assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
    server.shutdown();
}

#[test]
fn saturated_queue_rejects_over_the_wire_and_counts_rejections() {
    // workers: 0 means nothing ever drains the queue, so saturation is
    // deterministic: the first predict parks its handler thread, the
    // second must be turned away at the door.
    let engine = engine(ServeConfig {
        workers: 0,
        cache: false,
        max_queue: 1,
        ..ServeConfig::default()
    });
    // Generous read timeout: the parked handler is *supposed* to wait.
    let config = ServerConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    };
    let mut server = server(Arc::clone(&engine), config);

    let mut occupant = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut occupant, r#"{"op":"predict","side":"tail","anchor":0,"relation":0,"k":2}"#);
    // Wait until that request is actually sitting in the engine queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "occupant request never reached the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut rejected = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut rejected, r#"{"op":"predict","side":"tail","anchor":1,"relation":0,"k":2}"#);
    let response = read_response(&rejected);
    assert_eq!(response.get("ok"), Some(&JsonValue::Bool(false)));
    assert_eq!(kind_of(&response), Some("overloaded"));
    assert_eq!(engine.metrics().counter("serve/rejected").get(), 1);

    // Control operations bypass the scoring queue: ping still answers.
    send_line(&mut rejected, r#"{"op":"ping"}"#);
    let pong = read_response(&rejected);
    assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));

    // Shutdown must unblock the parked occupant and join every thread.
    server.shutdown();
}

#[test]
fn slow_loris_without_newlines_is_cut_off_by_the_line_cap() {
    // A trickling sender defeats idle timeouts (every byte resets the
    // read clock), so the line cap is what bounds the damage.
    let config = ServerConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        max_line_bytes: 64,
    };
    let mut server = server(engine(ServeConfig::default()), config);
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Trickle 16 bytes at a time, never sending a newline.
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut response = String::new();
    let mut write_failed = false;
    for _ in 0..32 {
        if client.write_all(&[b'x'; 16]).and_then(|_| client.flush()).is_err() {
            write_failed = true; // server already hung up on us
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    match reader.read_line(&mut response) {
        Ok(0) => {} // disconnected without a readable error: contained
        Ok(_) => {
            let parsed = parse(response.trim_end()).unwrap();
            assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(false)));
            assert_eq!(kind_of(&parsed), Some("line_too_long"));
        }
        // Writing into a closed socket earns an RST that can discard the
        // buffered error line; the failed write already proves the server
        // cut the connection, which is the property under test.
        Err(e) if write_failed => {
            eprintln!("error line lost to connection reset (acceptable): {e}");
        }
        Err(e) => panic!("server never reacted to the slow loris: {e}"),
    }

    // The server is still healthy for everyone else.
    let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
    send_line(&mut fresh, r#"{"op":"ping"}"#);
    assert_eq!(read_response(&fresh).get("ok"), Some(&JsonValue::Bool(true)));
    server.shutdown();
}

#[test]
fn overload_recovers_once_the_queue_drains() {
    // Same saturation setup, but with a real worker: once the backlog
    // clears, previously-rejected clients succeed on retry.
    let engine = engine(ServeConfig {
        workers: 1,
        cache: false,
        max_queue: 2,
        ..ServeConfig::default()
    });
    let mut server = server(Arc::clone(&engine), ServerConfig::default());
    let addr = server.local_addr();

    // Hammer from several threads; some requests may be rejected.
    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                send_line(
                    &mut c,
                    &format!(r#"{{"op":"predict","side":"tail","anchor":{i},"relation":0,"k":2}}"#),
                );
                let first = read_response(&c);
                if first.get("ok") == Some(&JsonValue::Bool(true)) {
                    return true;
                }
                assert_eq!(kind_of(&first), Some("overloaded"), "unexpected failure: {first:?}");
                // Retry with increasing, client-staggered backoff. A fixed
                // shared delay would make every rejected client's retry
                // land in the same instant and re-trip the bound (observed
                // on single-core runners); eventual success is the
                // property, not success on one synchronized retry.
                for attempt in 1..=10u64 {
                    std::thread::sleep(Duration::from_millis(50 * attempt + 17 * i as u64));
                    send_line(
                        &mut c,
                        &format!(
                            r#"{{"op":"predict","side":"tail","anchor":{i},"relation":0,"k":2}}"#
                        ),
                    );
                    let retry = read_response(&c);
                    if retry.get("ok") == Some(&JsonValue::Bool(true)) {
                        return true;
                    }
                    assert_eq!(kind_of(&retry), Some("overloaded"), "unexpected failure: {retry:?}");
                }
                false
            })
        })
        .collect();
    for handle in clients {
        assert!(handle.join().unwrap(), "a client failed even after the queue drained");
    }
    server.shutdown();
}

/// Error kinds a hostile request line may legitimately earn.
const HOSTILE_KINDS: [&str; 3] = ["bad_request", "invalid_entity", "invalid_relation"];

/// Valid request templates the fuzzer truncates and corrupts.
const VALID_LINES: [&str; 4] = [
    r#"{"op":"predict","side":"tail","anchor":"e3","relation":"r1","k":5,"id":"q"}"#,
    r#"{"op":"predict","side":"head","anchor":7,"relation":2,"k":3}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"ping"}"#,
];

/// Number literals that no id or depth field may accept (out of range,
/// negative, fractional, infinite after parsing, or not JSON at all).
const HOSTILE_NUMBERS: [&str; 10] = [
    "1e400",
    "-1e400",
    "-1",
    "0.5",
    "1e19",
    "4294967296",
    "18446744073709551616",
    "NaN",
    "--1",
    "1.5e3.2",
];

/// Bytes that are guaranteed not to be valid UTF-8, made lossy: every
/// result carries at least one U+FFFD, so it can never spell a dictionary
/// name or an op.
fn lossy_junk(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len);
    let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
    let at = rng.gen_range(0..=bytes.len());
    bytes.insert(at, 0xff);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One hostile request line of family `family`, drawn from `rng`.
fn hostile_line(family: usize, rng: &mut StdRng) -> String {
    let pick = |rng: &mut StdRng, items: &[&str]| items[rng.gen_range(0..items.len())].to_owned();
    match family {
        // Random bytes, invalid UTF-8 made lossy.
        0 => lossy_junk(rng, 300),
        // Deep nesting, closed or not, far past the parser's depth cap.
        1 => {
            let depth = rng.gen_range(1..20_000);
            let open = pick(rng, &["[", "{\"a\":", "{\"op\":\"predict\",\"k\":"]);
            let close = if open == "[" { "]" } else { "}" };
            let closed = rng.gen_range(0..=depth);
            format!("{}1{}", open.repeat(depth), close.repeat(closed))
        }
        // Huge, negative, fractional and malformed numbers in every
        // numeric field of an otherwise valid predict.
        2 => {
            let n = pick(rng, &HOSTILE_NUMBERS);
            match rng.gen_range(0..3) {
                0 => format!(r#"{{"op":"predict","side":"tail","anchor":{n},"relation":0,"k":3}}"#),
                1 => format!(r#"{{"op":"predict","side":"head","anchor":1,"relation":{n},"k":3}}"#),
                _ => {
                    // A depth field that is negative, fractional, infinite or
                    // not a number is rejected before any id is resolved.
                    let k = pick(rng, &["-1", "0.5", "1e400", "-1e400", "NaN", "\"5\"", "null"]);
                    format!(r#"{{"op":"predict","side":"tail","anchor":1,"relation":0,"k":{k}}}"#)
                }
            }
        }
        // Truncated JSON: every strict prefix of a valid line is invalid.
        3 => {
            let line = pick(rng, &VALID_LINES);
            let cut = rng.gen_range(0..line.len());
            line[..cut].to_owned()
        }
        // A valid line followed by trailing junk.
        4 => format!("{}{}", pick(rng, &VALID_LINES), lossy_junk(rng, 40)),
        // Lossy junk where the op, a side or a name belongs.
        _ => {
            let junk = lossy_junk(rng, 40).replace(['"', '\\'], "");
            let predict = r#"{"op":"predict","side":"SIDE","anchor":ANCHOR,"relation":0,"k":3}"#;
            match rng.gen_range(0..3) {
                0 => format!(r#"{{"op":"{junk}"}}"#),
                1 => predict.replace("SIDE", &junk).replace("ANCHOR", "1"),
                _ => predict.replace("SIDE", "tail").replace("ANCHOR", &format!("\"{junk}\"")),
            }
        }
    }
}

mod wire_fuzz {
    use super::*;
    use mei_serve::frame::{Frame, LineFramer};
    use mei_serve::wire::handle_line;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One engine shared by every case (starting one per case would spawn
    /// a worker pool per case).
    fn shared_engine() -> &'static Engine {
        static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
        ENGINE.get_or_init(|| engine(ServeConfig::default()))
    }

    proptest! {
        /// Hostile wire input never panics the handler and always comes
        /// back as a one-line `{"ok":false,...}` response carrying a typed
        /// `kind`, never a shutdown.
        #[test]
        fn hostile_lines_get_a_typed_error(family in 0usize..6, seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let line = hostile_line(family, &mut rng);
            let (response, stop) = handle_line(shared_engine(), &line);
            prop_assert!(!stop, "hostile line {line:?} shut the server down");
            prop_assert!(!response.contains('\n'), "multi-line response to {line:?}");
            let v = parse(&response).expect("the response is valid JSON");
            prop_assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
            let kind = kind_of(&v);
            prop_assert!(
                kind.is_some_and(|k| HOSTILE_KINDS.contains(&k)),
                "line {line:?} got {response}"
            );
        }

        /// The same hostile lines as one byte stream, cut into random
        /// chunks and framed by the event loop's `LineFramer` under a cap
        /// one byte either side of some line's length: every line within
        /// the cap comes out intact and earns a typed error; the first
        /// line over the cap ends the stream with `TooLong`.
        #[test]
        fn framed_hostile_stream_is_split_capped_and_answered(
            seed in 0u64..1_000_000,
            cap_line in 0usize..8,
            cap_delta in 0usize..3
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lines: Vec<String> = (0..rng.gen_range(1..8))
                .map(|_| hostile_line(rng.gen_range(0..6), &mut rng).replace('\n', ""))
                .collect();
            let max_bytes = (lines[cap_line % lines.len()].len() + cap_delta).saturating_sub(1);
            let stream = format!("{}\n", lines.join("\n"));
            let mut framer = LineFramer::new(max_bytes);
            let mut framed = Vec::new();
            let mut too_long = false;
            let mut rest = stream.as_bytes();
            while !rest.is_empty() && !too_long {
                let (chunk, tail) = rest.split_at(rng.gen_range(1usize..64).min(rest.len()));
                rest = tail;
                framer.push(chunk);
                loop {
                    match framer.next_line() {
                        Frame::Line(line) => framed.push(line),
                        Frame::TooLong => {
                            too_long = true;
                            break;
                        }
                        Frame::NeedMore => break,
                    }
                }
            }
            let within = lines.iter().take_while(|l| l.len() <= max_bytes).count();
            prop_assert_eq!(too_long, within < lines.len());
            prop_assert_eq!(&framed[..], &lines[..within]);
            for line in &framed {
                let (response, stop) = handle_line(shared_engine(), line);
                let v = parse(&response).expect("the response is valid JSON");
                let typed = kind_of(&v).is_some_and(|k| HOSTILE_KINDS.contains(&k));
                prop_assert!(!stop && typed, "{}", response);
            }
        }

        /// A depth far beyond the vocabulary (up to the largest integer a
        /// JSON number can name exactly) answers with every entity, not a
        /// panic or an allocation sized by the request.
        #[test]
        fn huge_depth_is_bounded_by_the_vocabulary(exp in 6u32..20, side in 0usize..2) {
            let k = 10u64.pow(exp);
            let side = ["tail", "head"][side];
            let line =
                format!(r#"{{"op":"predict","side":"{side}","anchor":1,"relation":0,"k":{k}}}"#);
            let (response, _) = handle_line(shared_engine(), &line);
            let v = parse(&response).expect("the response is valid JSON");
            prop_assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)), "{}", response);
            let results = v.get("results").and_then(|r| r.as_arr()).map(|r| r.len());
            prop_assert_eq!(results, Some(20));
        }
    }
}

//! A minimal keep-alive HTTP/1.1 client for the generator: one
//! request in flight per connection, `Content-Length` bodies only (all
//! `monomapd` sends).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

pub struct Response {
    pub status: u16,
    /// The `X-Monomap-Cache` header, when present.
    pub cache: Option<String>,
    pub body: Arc<[u8]>,
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
        }
    }

    /// Sends one request and reads its response, reconnecting first if
    /// the server closed the previous connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            self.stream = Some(connect(self.addr)?);
            self.buf.clear();
        }
        let result = self.exchange(method, path, body);
        if !matches!(&result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(r, _)| r)
    }

    /// Returns the response and whether the connection stays open.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(Response, bool)> {
        let stream = self.stream.as_mut().expect("connected above");
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        stream.write_all(&msg)?;

        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            read_more(stream, &mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut cache = None;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "x-monomap-cache" => cache = Some(value.to_string()),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            read_more(stream, &mut self.buf)?;
        }
        let body: Arc<[u8]> = self.buf[head_end..head_end + length].into();
        self.buf.drain(..head_end + length);
        Ok((
            Response {
                status,
                cache,
                body,
            },
            keep_alive,
        ))
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

// Fixture: wire constants at v3 while the fixture PROTOCOL.md still
// says v2 — protocol_drift must flag the stale doc Version line.

pub const FRAME_HEADER_BYTES: usize = 28;
pub const MAX_FRAME_BYTES: usize = 4 << 20;
pub const BATCH_RECORDS: usize = 256;
pub const MAX_BATCH_BYTES: usize = 1 << 20;
pub const ERR_BAD_REQUEST: u16 = 1;

pub const REQUEST_KINDS: [&str; 2] = ["ping", "query"];

impl Request {
    pub fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Query { .. } => 1,
        }
    }
}

impl Codec for Request {
    const TAG: [u8; 4] = *b"SIRQ";
    const VERSION: u16 = 3;

    fn encode(&self, w: &mut W) {
        w.put_u8(self.tag());
    }

    fn decode(r: &mut R) -> Result<Self, E> {
        Ok(match r.u8()? {
            0 => Request::Ping,
            1 => Request::Query { a: r.a()?, b: r.b()? },
            _ => return Err(E::Bad),
        })
    }
}

//! The shared query-resolution engine.
//!
//! Both deployments answer queries identically — only timing, capacity and
//! power differ. Centralising the logic here is what makes the on-demand
//! shift behaviour-preserving.

use crate::wire::{Answer, DnsError, DnsResponse, Query, Rcode, TYPE_A};
use crate::zone::Zone;

/// How the engine handled a query. `R` is the form of the response: the
/// inline [`Answer`] the servers encode straight into their reply frame
/// ([`answer`]), or an owned [`DnsResponse`] ([`resolve`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution<R = DnsResponse> {
    /// A response was produced (hit, NXDOMAIN, or NOTIMP).
    Answered(R),
    /// The query exceeds this deployment's parse-depth capability and must
    /// be punted to a more capable resolver (§9.2's "worst case scenario").
    TooDeep,
}

/// Resolves a raw query against a zone, without allocating.
///
/// `max_name_len` models a hardware parser's depth limit: names whose
/// encoding exceeds it cannot be parsed by the dataplane and return
/// [`Resolution::TooDeep`]. Software passes `None`.
pub fn answer(
    zone: &Zone,
    query_bytes: &[u8],
    max_name_len: Option<usize>,
) -> Result<Resolution<Answer>, DnsError> {
    let query = Query::decode(query_bytes)?;
    if max_name_len.is_some_and(|limit| query.name.encoded_len() > limit) {
        return Ok(Resolution::TooDeep);
    }
    let (rcode, record) = if query.qtype != TYPE_A {
        // Emu DNS serves A lookups only (§3.3).
        (Rcode::NotImp, None)
    } else {
        match zone.lookup(&query.name) {
            Some(record) => (Rcode::NoError, Some(record)),
            // "Emu DNS informs the client that it cannot resolve the name."
            None => (Rcode::NxDomain, None),
        }
    };
    Ok(Resolution::Answered(Answer {
        id: query.id,
        rcode,
        name: query.name,
        record,
    }))
}

/// [`answer`] with the response as an owned [`DnsResponse`].
pub fn resolve(
    zone: &Zone,
    query_bytes: &[u8],
    max_name_len: Option<usize>,
) -> Result<Resolution, DnsError> {
    Ok(match answer(zone, query_bytes, max_name_len)? {
        Resolution::Answered(a) => Resolution::Answered(a.into()),
        Resolution::TooDeep => Resolution::TooDeep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Name;

    /// Record type AAAA, which Emu DNS does not serve.
    const TYPE_AAAA: u16 = 28;

    fn query(name: &str, qtype: u16) -> Vec<u8> {
        Query {
            id: 42,
            name: Name::parse(name).unwrap(),
            qtype,
            recursion_desired: false,
        }
        .encode()
    }

    #[test]
    fn hit_answers_with_record() {
        let zone = Zone::synthetic(8);
        let r = resolve(&zone, &query("host-3.example.com", TYPE_A), None).unwrap();
        match r {
            Resolution::Answered(resp) => {
                assert_eq!(resp.rcode, Rcode::NoError);
                assert_eq!(resp.answers[0].0, Zone::synthetic_addr(3));
                assert_eq!(resp.id, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_answers_nxdomain() {
        let zone = Zone::synthetic(8);
        let r = resolve(&zone, &query("nope.example.com", TYPE_A), None).unwrap();
        match r {
            Resolution::Answered(resp) => assert_eq!(resp.rcode, Rcode::NxDomain),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_a_query_is_notimp() {
        let zone = Zone::synthetic(8);
        let r = resolve(&zone, &query("host-1.example.com", TYPE_AAAA), None).unwrap();
        match r {
            Resolution::Answered(resp) => assert_eq!(resp.rcode, Rcode::NotImp),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deep_names_punt_to_software() {
        let zone = Zone::synthetic(8);
        let deep = "a.very.deep.chain.of.labels.that.keeps.going.example.com";
        let r = resolve(&zone, &query(deep, TYPE_A), Some(32)).unwrap();
        assert_eq!(r, Resolution::TooDeep);
        // The same query parses fine without the hardware limit.
        let r = resolve(&zone, &query(deep, TYPE_A), None).unwrap();
        assert!(matches!(r, Resolution::Answered(_)));
    }

    #[test]
    fn garbage_is_an_error() {
        let zone = Zone::synthetic(1);
        assert!(resolve(&zone, &[1, 2, 3], None).is_err());
    }
}

//! Joins client-side request timings with the daemon's `--access-log`
//! lines by `X-Request-Id`, so the client latency splits into server
//! time (queue wait, search, the rest) and an unattributed residual.

use std::collections::HashMap;

use cogent::obs::json::Json;

/// One access-log line (`cogent serve --access-log`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRecord {
    pub id: String,
    pub status: u16,
    pub queue_wait_ns: u64,
    pub search_ns: u64,
    pub total_ns: u64,
}

fn field(json: &Json, name: &str) -> Result<u64, String> {
    json.get(name)
        .and_then(Json::as_u128)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("access log line without {name}"))
}

/// Parses the JSON-lines access log.
pub fn parse_access_log(text: &str) -> Result<Vec<AccessRecord>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let json = Json::parse(line).map_err(|e| format!("access log line {line:?}: {e}"))?;
            Ok(AccessRecord {
                id: json
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("access log line without id")?
                    .to_string(),
                status: u16::try_from(field(&json, "status")?).map_err(|e| e.to_string())?,
                queue_wait_ns: field(&json, "queue_wait_ns")?,
                search_ns: field(&json, "search_ns")?,
                total_ns: field(&json, "total_ns")?,
            })
        })
        .collect()
}

/// A client timing with its server record.
#[derive(Debug, Clone)]
pub struct Joined {
    pub client_ns: u64,
    pub server: AccessRecord,
}

/// The join result: matched pairs (in client order) and the client ids
/// the log never mentioned. Log lines for other requests (the set-up
/// fill) are ignored; an id logged twice is an error.
#[derive(Debug, Default)]
pub struct Join {
    pub pairs: Vec<Joined>,
    pub unmatched: Vec<String>,
}

pub fn join(client: &[(String, u64)], log: &[AccessRecord]) -> Result<Join, String> {
    let mut by_id: HashMap<&str, &AccessRecord> = HashMap::with_capacity(log.len());
    for record in log {
        if by_id.insert(record.id.as_str(), record).is_some() {
            return Err(format!("request id {} logged twice", record.id));
        }
    }
    let mut out = Join::default();
    for (id, client_ns) in client {
        match by_id.get(id.as_str()) {
            Some(record) => out.pairs.push(Joined {
                client_ns: *client_ns,
                server: (*record).clone(),
            }),
            None => out.unmatched.push(id.clone()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = r#"{"id":"fill-0","endpoint":"generate","status":200,"queue_wait_ns":5,"search_ns":900,"total_ns":1000,"cache":"miss","truncated":false}
{"id":"pb-0","endpoint":"generate","status":200,"queue_wait_ns":10,"search_ns":0,"total_ns":300,"cache":"hit","truncated":false}
{"id":"pb-1","endpoint":"explain","status":200,"queue_wait_ns":20,"search_ns":0,"total_ns":250,"cache":"hit","truncated":false}
"#;

    #[test]
    fn join_leaves_no_request_unmatched() {
        let log = parse_access_log(LOG).unwrap();
        assert_eq!(log.len(), 3);
        let client = vec![("pb-1".to_string(), 900), ("pb-0".to_string(), 1000)];
        let joined = join(&client, &log).unwrap();
        assert!(joined.unmatched.is_empty());
        assert_eq!(joined.pairs.len(), 2);
        assert_eq!(joined.pairs[0].server.total_ns, 250);
        assert_eq!(joined.pairs[1].client_ns, 1000);
    }

    #[test]
    fn join_reports_what_the_log_missed_and_rejects_duplicates() {
        let log = parse_access_log(LOG).unwrap();
        let client = vec![("pb-0".to_string(), 1), ("pb-9".to_string(), 2)];
        assert_eq!(join(&client, &log).unwrap().unmatched, ["pb-9"]);
        let mut twice = log.clone();
        twice.push(log[1].clone());
        assert!(join(&client, &twice).is_err());
        assert!(parse_access_log("{\"id\":\"x\"}").is_err());
    }
}

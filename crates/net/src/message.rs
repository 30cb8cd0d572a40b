//! Node identifiers and the message/delivery types that travel through the
//! simulated network.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use swamp_sim::SimTime;

/// Identifies a node in the simulated network (device, fog node, broker,
/// cloud endpoint, attacker…). Cheap to clone.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(Arc<str>);

impl NodeId {
    /// Creates a node id.
    ///
    /// # Panics
    /// Panics if `name` is empty.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(!name.is_empty(), "node id must be non-empty");
        NodeId(Arc::from(name))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:?})", &*self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

/// Lets a holder of a `NodeId` address a send with `&id`: the clone is a
/// reference-count bump, not the allocation `&str` → `NodeId` costs.
impl From<&NodeId> for NodeId {
    fn from(id: &NodeId) -> Self {
        id.clone()
    }
}

impl AsRef<str> for NodeId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Unique, monotonically increasing message id assigned by the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// A message handed to the network for transmission.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Application topic (MQTT-style slash-separated path). A constant
    /// topic (`&'static str`) is borrowed for the message's whole journey;
    /// a computed one (`String`) is owned — neither is copied again.
    pub topic: Cow<'static, str>,
    /// Opaque payload bytes (often sealed JSON).
    pub payload: Vec<u8>,
}

impl Message {
    /// Creates a message.
    pub fn new(topic: impl Into<Cow<'static, str>>, payload: impl Into<Vec<u8>>) -> Self {
        Message {
            topic: topic.into(),
            payload: payload.into(),
        }
    }

    /// Wire size used for serialization-delay and airtime computations:
    /// payload plus a small topic/framing overhead.
    pub fn wire_size(&self) -> usize {
        self.payload.len() + self.topic.len() + 16
    }
}

/// A message delivered into a node's inbox.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// Network-assigned id of the underlying transmission.
    pub id: MsgId,
    /// Sender node.
    pub src: NodeId,
    /// Receiver node (the inbox owner).
    pub dst: NodeId,
    /// The message.
    pub message: Message,
    /// Virtual time the message entered the network.
    pub sent_at: SimTime,
    /// Virtual time it was delivered.
    pub delivered_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        let a = NodeId::new("probe-1");
        let b: NodeId = "probe-1".into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "probe-1");
        assert_eq!(a.to_string(), "probe-1");
        assert!(format!("{a:?}").contains("probe-1"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_node_id_panics() {
        let _ = NodeId::new("");
    }

    #[test]
    fn wire_size_includes_overhead() {
        let m = Message::new("a/b", vec![0u8; 10]);
        assert_eq!(m.wire_size(), 10 + 3 + 16);
    }
}

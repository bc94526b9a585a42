//! The inbound queue shared by the socket transports.
//!
//! Reader threads push everything a transport receives — peer frames and
//! client requests alike — into **one** channel, so the run loop blocked
//! in [`Transport::poll_deliver`](crate::Transport::poll_deliver) wakes
//! on either kind of arrival, and
//! [`Transport::poll_clients`](crate::Transport::poll_clients) is a
//! drain of what is already in memory.

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use sft_types::SimTime;

use crate::{ClientDelivery, Delivery};

/// One arrival, as a reader thread hands it to the run loop.
pub(crate) enum Inbound {
    /// A validated frame from a peer replica.
    Peer(Delivery),
    /// A request frame from an accepted client connection.
    Client(ClientDelivery),
}

/// The run loop's end of the inbound queue: the channel plus what was
/// popped from it but not yet handed out.
pub(crate) struct Inbox {
    rx: Receiver<Inbound>,
    peers: Vec<Delivery>,
    clients: Vec<ClientDelivery>,
    /// Arrival order stamped on peer deliveries.
    next_seq: u64,
}

impl Inbox {
    /// A fresh queue and the sender reader threads clone.
    pub(crate) fn new() -> (Sender<Inbound>, Self) {
        let (tx, rx) = mpsc::channel();
        let inbox = Self {
            rx,
            peers: Vec::new(),
            clients: Vec::new(),
            next_seq: 0,
        };
        (tx, inbox)
    }

    fn stage(&mut self, arrival: Inbound) {
        match arrival {
            Inbound::Peer(mut delivery) => {
                delivery.seq = self.next_seq;
                self.next_seq += 1;
                self.peers.push(delivery);
            }
            Inbound::Client(request) => self.clients.push(request),
        }
    }

    /// Pops everything that has already arrived; never blocks.
    fn drain(&mut self) {
        while let Ok(arrival) = self.rx.try_recv() {
            self.stage(arrival);
        }
    }

    /// Collects what has arrived; if that is nothing and `deadline` is
    /// still ahead of `now`, sleeps until the first arrival of either
    /// kind (or the deadline) and collects whatever came with it.
    pub(crate) fn wait(&mut self, now: SimTime, deadline: SimTime) {
        self.drain();
        if self.peers.is_empty() && self.clients.is_empty() && deadline > now {
            let timeout = Duration::from_micros((deadline - now).as_micros());
            if let Ok(arrival) = self.rx.recv_timeout(timeout) {
                self.stage(arrival);
                self.drain();
            }
        }
    }

    /// True while popped peer deliveries await the run loop.
    pub(crate) fn has_staged_peers(&self) -> bool {
        !self.peers.is_empty()
    }

    /// Hands out the staged peer deliveries, stamped as delivered `now`.
    pub(crate) fn take_peers(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut out = std::mem::take(&mut self.peers);
        for delivery in &mut out {
            delivery.deliver_at = now;
        }
        out
    }

    /// Hands out every client request received so far.
    pub(crate) fn take_clients(&mut self) -> Vec<ClientDelivery> {
        self.drain();
        std::mem::take(&mut self.clients)
    }
}

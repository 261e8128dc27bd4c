//! Admission and batching: coalescing per-request classifications into
//! per-tenant batches, one batched forward per module and round.
//!
//! Requests are validated at admission (known tenant, declared shape,
//! payload length) and queued per tenant in arrival order. Each service
//! round drains up to `max_batch` requests per tenant into one contiguous
//! `[N, …]` tensor, so a single forward pass serves the whole batch. The
//! queue is deliberately oblivious to shards: batch composition is a
//! function of arrival order and `max_batch` alone, which is what makes
//! service reports byte-identical across shard counts.
//!
//! ## Overload protection
//!
//! Three deterministic mechanisms guard the queue, all indexed by the
//! service round counter rather than a clock (analyzer rule R1):
//!
//! 1. **Per-tenant queue bound** — a tenant whose queue is at its
//!    configured depth gets [`RejectReason::Overloaded`] and the request
//!    is never enqueued.
//! 2. **Round-based token bucket** — each tenant may carry a rate limit
//!    expressed in millitokens per service round. A request costs 1000
//!    millitokens; an empty bucket yields
//!    [`RejectReason::RateLimited`] with `retry_after_rounds` computed
//!    from the integer refill rate. Buckets advance lazily from the round
//!    stamp passed into [`AdmissionQueue::admit`], so the limiter is a
//!    pure function of (config, request trace, round numbers).
//! 3. **Aggregate shed policy** — when the sum of all queues exceeds the
//!    service-wide bound, queued requests are shed from over-quota
//!    tenants (most-over-fair-share first, newest request first) until
//!    the bound holds. Tenants at or under their fair share are never
//!    shed on behalf of a noisy neighbour.

use crate::error::ServeError;
use crate::proto::RejectReason;
use mvml_nn::Tensor;
use std::collections::{BTreeMap, VecDeque};

/// Millitokens one admitted request costs from a tenant's bucket.
const TOKEN_MILLI: u64 = 1000;

/// A round-based token-bucket rate limit for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSpec {
    /// Bucket capacity in whole requests (burst tolerance).
    pub burst: u64,
    /// Refill rate in millitokens per service round (1000 = one request
    /// per round). Clamped to ≥ 1 so `retry_after_rounds` is always
    /// finite.
    pub refill_milli: u64,
}

/// Per-tenant admission quota: queue bound plus optional rate limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Deepest the tenant's queue may grow (further requests are
    /// `Overloaded`).
    pub max_queue: usize,
    /// Optional round-based token-bucket rate limit.
    pub rate: Option<RateSpec>,
}

/// One tenant's token-bucket state.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Millitokens currently available.
    milli: u64,
    /// Round the bucket was last advanced to.
    last_round: u64,
}

/// One admitted classification request, validated and ready to batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyItem {
    /// Tenant the request belongs to.
    pub tenant: String,
    /// Client correlation id.
    pub id: u64,
    /// Service round the request was admitted in (round-latency origin).
    pub admitted_round: u64,
    /// Row-major sample values (length = tenant sample-shape product).
    pub pixels: Vec<f32>,
}

/// One tenant's coalesced batch for a round.
#[derive(Debug, Clone)]
pub struct TenantBatch {
    /// Correlation ids, in admission order (row `i` of `x` answers
    /// `ids[i]`).
    pub ids: Vec<u64>,
    /// Admission round per request, parallel to `ids`.
    pub admitted_rounds: Vec<u64>,
    /// The batched input tensor `[N, …]`.
    pub x: Tensor,
}

/// The admission queue: per-tenant FIFO buffers plus the shape contract
/// each tenant's requests must satisfy.
#[derive(Debug)]
pub struct AdmissionQueue {
    /// Tenant → expected per-sample shape.
    shapes: BTreeMap<String, Vec<usize>>,
    /// Tenant → queued items (arrival order).
    queued: BTreeMap<String, VecDeque<ClassifyItem>>,
    /// Tenant → admission quota (absent = unbounded, unlimited).
    quotas: BTreeMap<String, QuotaSpec>,
    /// Tenant → token-bucket state (only for rate-limited tenants).
    buckets: BTreeMap<String, Bucket>,
    /// Service-wide queued-request ceiling enforced by the shed policy.
    aggregate_bound: Option<usize>,
    /// Per-tenant batch ceiling per round.
    max_batch: usize,
}

impl AdmissionQueue {
    /// A queue admitting the given tenants (name → per-sample shape),
    /// batching at most `max_batch` requests per tenant per round.
    pub fn new(shapes: BTreeMap<String, Vec<usize>>, max_batch: usize) -> Self {
        let queued = shapes
            .keys()
            .map(|name| (name.clone(), VecDeque::new()))
            .collect();
        AdmissionQueue {
            shapes,
            queued,
            quotas: BTreeMap::new(),
            buckets: BTreeMap::new(),
            aggregate_bound: None,
            max_batch: max_batch.max(1),
        }
    }

    /// Attaches an admission quota to one tenant. The token bucket starts
    /// full (burst capacity) at round 0.
    pub fn set_quota(&mut self, tenant: &str, quota: QuotaSpec) {
        if let Some(rate) = quota.rate {
            self.buckets.insert(
                tenant.to_string(),
                Bucket {
                    milli: rate.burst.saturating_mul(TOKEN_MILLI),
                    last_round: 0,
                },
            );
        } else {
            self.buckets.remove(tenant);
        }
        self.quotas.insert(tenant.to_string(), quota);
    }

    /// Sets (or clears) the service-wide queued-request ceiling the shed
    /// policy enforces.
    pub fn set_aggregate_bound(&mut self, bound: Option<usize>) {
        self.aggregate_bound = bound;
    }

    /// Validates and enqueues one request admitted during service round
    /// `round`.
    pub fn admit(
        &mut self,
        round: u64,
        tenant: &str,
        id: u64,
        shape: &[usize],
        pixels: Vec<f32>,
    ) -> Result<(), ServeError> {
        let want = self
            .shapes
            .get(tenant)
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        if want != shape {
            return Err(ServeError::ShapeMismatch {
                tenant: tenant.to_string(),
                got: shape.to_vec(),
                want: want.clone(),
            });
        }
        let expect: usize = want.iter().product();
        if pixels.len() != expect {
            return Err(ServeError::PayloadMismatch {
                want: expect,
                got: pixels.len(),
            });
        }
        let quota = self.quotas.get(tenant).copied();
        if let Some(quota) = quota {
            let depth = self.queued.get(tenant).map_or(0, VecDeque::len);
            if depth >= quota.max_queue.max(1) {
                return Err(ServeError::Rejected {
                    tenant: tenant.to_string(),
                    reason: RejectReason::Overloaded,
                });
            }
            if let Some(rate) = quota.rate {
                let refill = rate.refill_milli.max(1);
                let cap = rate.burst.saturating_mul(TOKEN_MILLI);
                if let Some(bucket) = self.buckets.get_mut(tenant) {
                    let elapsed = round.saturating_sub(bucket.last_round);
                    bucket.milli = bucket
                        .milli
                        .saturating_add(elapsed.saturating_mul(refill))
                        .min(cap);
                    bucket.last_round = round;
                    if bucket.milli < TOKEN_MILLI {
                        let deficit = TOKEN_MILLI - bucket.milli;
                        return Err(ServeError::Rejected {
                            tenant: tenant.to_string(),
                            reason: RejectReason::RateLimited {
                                retry_after_rounds: deficit.div_ceil(refill),
                            },
                        });
                    }
                    bucket.milli -= TOKEN_MILLI;
                }
            }
        }
        if let Some(q) = self.queued.get_mut(tenant) {
            q.push_back(ClassifyItem {
                tenant: tenant.to_string(),
                id,
                admitted_round: round,
                pixels,
            });
        }
        Ok(())
    }

    /// Total queued requests across tenants.
    pub fn pending(&self) -> usize {
        self.queued.values().map(VecDeque::len).sum()
    }

    /// Enforces the aggregate bound: sheds queued requests from over-quota
    /// tenants until the total fits. Fair share is `bound / tenants`
    /// (at least 1); the tenant most over its share loses its newest
    /// request first, ties broken by tenant name order. Returns the shed
    /// items so the service can answer them as rejected.
    pub fn shed_over_quota(&mut self) -> Vec<ClassifyItem> {
        let Some(bound) = self.aggregate_bound else {
            return Vec::new();
        };
        let mut shed = Vec::new();
        let tenants = self.queued.len().max(1);
        let fair = (bound / tenants).max(1);
        while self.pending() > bound {
            // Prefer the tenant most over its fair share; fall back to the
            // longest queue if (due to integer division) none is over.
            let victim = self
                .queued
                .iter()
                .filter(|(_, q)| q.len() > fair)
                .max_by_key(|(_, q)| q.len() - fair)
                .or_else(|| {
                    self.queued
                        .iter()
                        .filter(|(_, q)| !q.is_empty())
                        .max_by_key(|(_, q)| q.len())
                })
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else { break };
            if let Some(item) = self.queued.get_mut(&victim).and_then(VecDeque::pop_back) {
                shed.push(item);
            } else {
                break;
            }
        }
        shed
    }

    /// Drains up to `max_batch` requests per tenant into per-tenant
    /// batches (tenants in name order; requests in arrival order).
    /// Returns an empty map when nothing is queued.
    pub fn drain_round(&mut self) -> BTreeMap<String, TenantBatch> {
        let mut round = BTreeMap::new();
        for (tenant, q) in &mut self.queued {
            if q.is_empty() {
                continue;
            }
            let take = q.len().min(self.max_batch);
            let sample_shape = match self.shapes.get(tenant) {
                Some(s) => s.clone(),
                None => continue,
            };
            let sample_len: usize = sample_shape.iter().product();
            let mut ids = Vec::with_capacity(take);
            let mut admitted_rounds = Vec::with_capacity(take);
            let mut data = Vec::with_capacity(take * sample_len);
            for _ in 0..take {
                if let Some(item) = q.pop_front() {
                    ids.push(item.id);
                    admitted_rounds.push(item.admitted_round);
                    data.extend_from_slice(&item.pixels);
                }
            }
            let mut shape = vec![ids.len()];
            shape.extend_from_slice(&sample_shape);
            round.insert(
                tenant.clone(),
                TenantBatch {
                    ids,
                    admitted_rounds,
                    x: Tensor::from_vec(&shape, data),
                },
            );
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(max_batch: usize) -> AdmissionQueue {
        let mut shapes = BTreeMap::new();
        shapes.insert("alpha".to_string(), vec![3]);
        shapes.insert("beta".to_string(), vec![1, 2, 2]);
        AdmissionQueue::new(shapes, max_batch)
    }

    #[test]
    fn admission_validates_tenant_shape_and_payload() {
        let mut q = queue(8);
        q.admit(0, "alpha", 1, &[3], vec![0.1, 0.2, 0.3])
            .expect("ok");
        assert!(matches!(
            q.admit(0, "gamma", 2, &[3], vec![0.0; 3]),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert!(matches!(
            q.admit(0, "alpha", 3, &[4], vec![0.0; 4]),
            Err(ServeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            q.admit(0, "alpha", 4, &[3], vec![0.0; 2]),
            Err(ServeError::PayloadMismatch { want: 3, got: 2 })
        ));
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn drain_coalesces_per_tenant_in_arrival_order() {
        let mut q = queue(2);
        for id in 0..5u64 {
            q.admit(0, "alpha", id, &[3], vec![id as f32; 3])
                .expect("ok");
        }
        q.admit(0, "beta", 9, &[1, 2, 2], vec![1.0; 4]).expect("ok");

        let round = q.drain_round();
        assert_eq!(round.len(), 2);
        let alpha = &round["alpha"];
        assert_eq!(alpha.ids, vec![0, 1], "max_batch caps the round");
        assert_eq!(alpha.admitted_rounds, vec![0, 0]);
        assert_eq!(alpha.x.shape(), &[2, 3]);
        assert_eq!(round["beta"].x.shape(), &[1, 1, 2, 2]);
        assert_eq!(q.pending(), 3, "overflow stays queued");

        let round = q.drain_round();
        assert_eq!(round["alpha"].ids, vec![2, 3]);
        let round = q.drain_round();
        assert_eq!(round["alpha"].ids, vec![4]);
        assert!(q.drain_round().is_empty());
    }

    #[test]
    fn queue_bound_rejects_with_overloaded() {
        let mut q = queue(8);
        q.set_quota(
            "alpha",
            QuotaSpec {
                max_queue: 2,
                rate: None,
            },
        );
        q.admit(0, "alpha", 0, &[3], vec![0.0; 3]).expect("ok");
        q.admit(0, "alpha", 1, &[3], vec![0.0; 3]).expect("ok");
        let got = q.admit(0, "alpha", 2, &[3], vec![0.0; 3]);
        assert!(matches!(
            got,
            Err(ServeError::Rejected {
                reason: RejectReason::Overloaded,
                ..
            })
        ));
        // Unquota'd tenants are unaffected.
        q.admit(0, "beta", 3, &[1, 2, 2], vec![0.0; 4]).expect("ok");
        // Draining frees space again.
        let _ = q.drain_round();
        q.admit(1, "alpha", 4, &[3], vec![0.0; 3]).expect("ok");
    }

    #[test]
    fn token_bucket_is_a_pure_function_of_rounds() {
        let mut q = queue(8);
        q.set_quota(
            "alpha",
            QuotaSpec {
                max_queue: 100,
                rate: Some(RateSpec {
                    burst: 2,
                    refill_milli: 500, // one request per two rounds
                }),
            },
        );
        // Burst capacity: two admissions at round 0, then rate-limited.
        q.admit(0, "alpha", 0, &[3], vec![0.0; 3]).expect("ok");
        q.admit(0, "alpha", 1, &[3], vec![0.0; 3]).expect("ok");
        let got = q.admit(0, "alpha", 2, &[3], vec![0.0; 3]);
        match got {
            Err(ServeError::Rejected {
                reason:
                    RejectReason::RateLimited {
                        retry_after_rounds: r,
                    },
                ..
            }) => assert_eq!(r, 2, "1000 millitokens at 500/round"),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // One round later the bucket holds 500 millitokens: still short.
        assert!(q.admit(1, "alpha", 3, &[3], vec![0.0; 3]).is_err());
        // Two rounds later it refilled one full token.
        q.admit(2, "alpha", 4, &[3], vec![0.0; 3]).expect("ok");
    }

    #[test]
    fn shed_policy_evicts_over_quota_tenants_newest_first() {
        let mut q = queue(8);
        q.set_aggregate_bound(Some(4));
        // Alpha floods (5 queued), beta stays modest (2 queued).
        for id in 0..5u64 {
            q.admit(0, "alpha", id, &[3], vec![0.0; 3]).expect("ok");
        }
        for id in 10..12u64 {
            q.admit(0, "beta", id, &[1, 2, 2], vec![0.0; 4])
                .expect("ok");
        }
        let shed = q.shed_over_quota();
        // Fair share is 4/2 = 2; alpha is 3 over, beta 0 over. The three
        // newest alpha requests go, beta is untouched.
        let shed_ids: Vec<(String, u64)> = shed.iter().map(|i| (i.tenant.clone(), i.id)).collect();
        assert_eq!(
            shed_ids,
            vec![
                ("alpha".to_string(), 4),
                ("alpha".to_string(), 3),
                ("alpha".to_string(), 2),
            ]
        );
        assert_eq!(q.pending(), 4);
        // Idempotent once under the bound.
        assert!(q.shed_over_quota().is_empty());
    }
}

#include "engine/transport/object_store_transport.h"

#include <utility>

#include "common/check.h"
#include "netsim/topology.h"

namespace gs {

ObjectStoreTransport::ObjectStoreTransport(Simulator& sim, Network& net,
                                          const ObjectStoreConfig& config,
                                          double scale,
                                          MetricsRegistry* metrics)
    : ShuffleTransport(sim, net), config_(config) {
  GS_CHECK(scale > 0);
  const Topology& topo = net_.topology();
  GS_CHECK_MSG(config_.dc == kNoDc || (config_.dc >= 0 &&
                                       config_.dc < topo.num_datacenters()),
               "object-store dc out of range");
  store_res_.reserve(topo.num_datacenters());
  store_addr_.reserve(topo.num_datacenters());
  for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
    store_res_.push_back(net_.AddServiceResource(config_.rate / scale));
    GS_CHECK_MSG(!topo.nodes_in(dc).empty(), "datacenter has no nodes");
    store_addr_.push_back(topo.nodes_in(dc).front());
  }
  if (metrics != nullptr) {
    puts_ = &metrics->counter("transport.store_puts");
    gets_ = &metrics->counter("transport.store_gets");
  }
}

DcIndex ObjectStoreTransport::StoreDcFor(NodeIndex src) const {
  return config_.dc == kNoDc ? net_.topology().dc_of(src) : config_.dc;
}

void ObjectStoreTransport::Transfer(ShardTransfer t) {
  if (t.kind != FlowKind::kShuffleFetch && t.kind != FlowKind::kShufflePush) {
    DirectFlow(t);
    return;
  }
  const DcIndex store_dc = StoreDcFor(t.src);

  Network::FlowSpec put;
  put.src = t.src;
  put.dst = store_addr_[store_dc];
  put.bytes = t.bytes;
  put.kind = FlowKind::kStorePut;
  put.src_uplink = true;
  put.dst_downlink = false;  // the tier's service resource is the sink
  put.service_res = store_res_[store_dc];
  put.extra_setup = config_.request_latency;
  if (puts_ != nullptr) puts_->Add(1);

  // The GET only starts once the PUT has landed in the store — the
  // store-and-forward barrier that costs this backend its extra JCT.
  net_.StartFlow(
      put, [this, store_dc, dst = t.dst, bytes = t.bytes,
            cb = std::move(t.on_landed)]() mutable {
        Network::FlowSpec get;
        get.src = store_addr_[store_dc];
        get.dst = dst;
        get.bytes = bytes;
        get.kind = FlowKind::kStoreGet;
        get.src_uplink = false;  // served by the tier, not a worker NIC
        get.dst_downlink = true;
        get.service_res = store_res_[store_dc];
        get.extra_setup = config_.request_latency;
        if (gets_ != nullptr) gets_->Add(1);
        net_.StartFlow(get, std::move(cb));
      });
}

}  // namespace gs

#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <numeric>

#include "device/workspace.hpp"
#include "telemetry/telemetry.hpp"

namespace felis::gs {

namespace {
constexpr int kGsTagBase = 0x6500;

struct Add {
  real_t operator()(real_t a, real_t b) const { return a + b; }
};
struct Min {
  real_t operator()(real_t a, real_t b) const { return a < b ? a : b; }
};
struct Max {
  real_t operator()(real_t a, real_t b) const { return a > b ? a : b; }
};

/// Combine the `count` duplicates f[d[0..count)] in order and write the
/// result back to each.
template <class Combine>
inline void fuse(real_t* f, const lidx_t* d, usize count, Combine combine) {
  real_t v = f[d[0]];
  for (usize i = 1; i < count; ++i) v = combine(v, f[d[i]]);
  for (usize i = 0; i < count; ++i) f[d[i]] = v;
}

/// Append the dofs order[begin..end) as the next id of a CSR list.
void append_id(const std::vector<lidx_t>& order, usize begin, usize end,
               std::vector<lidx_t>& start, std::vector<lidx_t>& dofs) {
  dofs.insert(dofs.end(), order.begin() + static_cast<std::ptrdiff_t>(begin),
              order.begin() + static_cast<std::ptrdiff_t>(end));
  start.push_back(static_cast<lidx_t>(dofs.size()));
}
}  // namespace

GatherScatter::GatherScatter(const std::vector<gidx_t>& node_ids,
                             comm::Communicator& comm, int channel,
                             device::Backend* backend)
    : comm_(comm),
      backend_(backend),
      num_dofs_(node_ids.size()),
      tag_(kGsTagBase + channel) {
  // Sort (id, dof) pairs by id to derive unique ids and their dof lists. The
  // order of equal-id dofs this leaves is the local combine order.
  std::vector<lidx_t> order(node_ids.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](lidx_t a, lidx_t b) {
    return node_ids[static_cast<usize>(a)] < node_ids[static_cast<usize>(b)];
  });

  std::vector<gidx_t> unique_ids;
  std::vector<usize> first;  // first position in `order` of each unique id
  for (usize i = 0; i < order.size(); ++i) {
    const gidx_t id = node_ids[static_cast<usize>(order[i])];
    if (unique_ids.empty() || unique_ids.back() != id) {
      unique_ids.push_back(id);
      first.push_back(i);
    }
  }
  first.push_back(order.size());

  // Detect sharing: exchange unique id lists and intersect. (A production
  // code restricts this to element-boundary ids and uses a distributed
  // directory; the result is identical.)
  const auto all_ids = comm_.allgatherv(unique_ids);
  for (int r = 0; r < comm_.size(); ++r) {
    if (r == comm_.rank()) continue;
    std::vector<gidx_t> shared;
    std::set_intersection(unique_ids.begin(), unique_ids.end(),
                          all_ids[static_cast<usize>(r)].begin(),
                          all_ids[static_cast<usize>(r)].end(),
                          std::back_inserter(shared));
    if (shared.empty()) continue;
    neighbors_.push_back(r);
    std::vector<lidx_t> pos(shared.size());
    for (usize i = 0; i < shared.size(); ++i) {
      const auto it =
          std::lower_bound(unique_ids.begin(), unique_ids.end(), shared[i]);
      pos[i] = static_cast<lidx_t>(it - unique_ids.begin());
    }
    shared_pos_.push_back(std::move(pos));
  }

  // Split the ids that need work into the two lists (ids held once by this
  // rank alone are dropped), then renumber shared_pos_ from unique ids to
  // shared ids; both numberings ascend with the global id.
  std::vector<lidx_t> shared_index(unique_ids.size(), -1);
  for (const auto& pos : shared_pos_)
    for (const lidx_t p : pos) shared_index[static_cast<usize>(p)] = 0;
  std::vector<usize> local_ids;
  shared_start_.push_back(0);
  for (usize u = 0; u < unique_ids.size(); ++u) {
    if (shared_index[u] >= 0) {
      shared_index[u] = static_cast<lidx_t>(shared_start_.size() - 1);
      append_id(order, first[u], first[u + 1], shared_start_, shared_dofs_);
    } else if (first[u + 1] - first[u] > 1) {
      local_ids.push_back(u);
    }
  }
  for (auto& pos : shared_pos_)
    for (lidx_t& p : pos) p = shared_index[static_cast<usize>(p)];
  // Local ids grouped by valence, so the fused pass sees long runs of equal
  // trip counts (face pairs, edge quadruples, ...).
  std::stable_sort(local_ids.begin(), local_ids.end(), [&](usize a, usize b) {
    return first[a + 1] - first[a] < first[b + 1] - first[b];
  });
  local_start_.push_back(0);
  for (const usize u : local_ids)
    append_id(order, first[u], first[u + 1], local_start_, local_dofs_);
}

usize GatherScatter::send_doubles_per_apply() const {
  usize total = 0;
  for (const auto& pos : shared_pos_) total += pos.size();
  return total;
}

template <class Combine>
void GatherScatter::apply_with(RealVec& field, Combine combine,
                               Profiler* prof) const {
  real_t* f = field.data();
  const usize num_shared = shared_start_.size() - 1;
  device::WorkspaceFrame scratch;
  RealVec& val = scratch.vec(num_shared);

  // Shared ids, gather: combine this rank's duplicates into one partial.
  // Ids have disjoint dof lists, so chunks over ids never touch the same
  // entry (here and in every pass below).
  dev().parallel_for_blocked(
      static_cast<lidx_t>(num_shared), /*grain=*/0,
      [&](lidx_t u0, lidx_t u1, int /*worker*/) {
        for (usize u = static_cast<usize>(u0); u < static_cast<usize>(u1); ++u) {
          const lidx_t* d = shared_dofs_.data() + shared_start_[u];
          const usize count = static_cast<usize>(shared_start_[u + 1] - shared_start_[u]);
          real_t v = f[d[0]];
          for (usize i = 1; i < count; ++i) v = combine(v, f[d[i]]);
          val[u] = v;
        }
      });

  // Send the partials (buffered), then run the local pass while they are in
  // flight.
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const auto& pos = shared_pos_[ni];
    RealVec sendbuf(pos.size());
    for (usize i = 0; i < pos.size(); ++i) sendbuf[i] = val[static_cast<usize>(pos[i])];
    comm_.send_vec(neighbors_[ni], tag_, sendbuf);
    if (prof) prof->add_message(static_cast<double>(sendbuf.size() * sizeof(real_t)));
    telemetry::charge_counter("gs.messages");
    telemetry::charge_counter(
        "gs.message_bytes", static_cast<double>(sendbuf.size() * sizeof(real_t)));
  }

  // Local ids: combine and write back in one pass. Constant trip counts for
  // the face, edge and corner valences of a conforming hex mesh let those
  // calls unroll.
  dev().parallel_for_blocked(
      static_cast<lidx_t>(local_start_.size() - 1), /*grain=*/0,
      [&](lidx_t u0, lidx_t u1, int /*worker*/) {
        for (usize u = static_cast<usize>(u0); u < static_cast<usize>(u1); ++u) {
          const lidx_t* d = local_dofs_.data() + local_start_[u];
          switch (const usize count = static_cast<usize>(local_start_[u + 1] - local_start_[u])) {
            case 2: fuse(f, d, 2, combine); break;
            case 4: fuse(f, d, 4, combine); break;
            case 8: fuse(f, d, 8, combine); break;
            default: fuse(f, d, count, combine);
          }
        }
      });

  // Shared ids, exchange: combine the partials of every neighbour, in
  // ascending rank order.
  for (usize ni = 0; ni < neighbors_.size(); ++ni) {
    const RealVec recvbuf = comm_.recv_vec<real_t>(neighbors_[ni], tag_);
    const auto& pos = shared_pos_[ni];
    FELIS_CHECK(recvbuf.size() == pos.size());
    for (usize i = 0; i < pos.size(); ++i) {
      real_t& v = val[static_cast<usize>(pos[i])];
      v = combine(v, recvbuf[i]);
    }
  }

  // Shared ids, scatter: write the combined value to every local duplicate.
  dev().parallel_for_blocked(
      static_cast<lidx_t>(num_shared), /*grain=*/0,
      [&](lidx_t u0, lidx_t u1, int /*worker*/) {
        for (usize u = static_cast<usize>(u0); u < static_cast<usize>(u1); ++u)
          for (lidx_t i = shared_start_[u]; i < shared_start_[u + 1]; ++i)
            f[shared_dofs_[static_cast<usize>(i)]] = val[u];
      });
}

void GatherScatter::apply(RealVec& field, GsOp op, Profiler* prof) const {
  FELIS_CHECK_MSG(field.size() == num_dofs_,
                  "gather-scatter field size mismatch: " << field.size()
                                                         << " != " << num_dofs_);
  telemetry::charge_counter("gs.applies");
  switch (op) {
    case GsOp::kAdd: apply_with(field, Add{}, prof); break;
    case GsOp::kMin: apply_with(field, Min{}, prof); break;
    case GsOp::kMax: apply_with(field, Max{}, prof); break;
  }
  if (prof) prof->add_bytes(2.0 * static_cast<double>(num_dofs_ * sizeof(real_t)));
}

const RealVec& GatherScatter::inverse_multiplicity() const {
  if (inv_mult_.empty()) {
    RealVec ones(num_dofs_, 1.0);
    apply(ones, GsOp::kAdd);
    for (real_t& v : ones) v = 1.0 / v;
    inv_mult_ = std::move(ones);
  }
  return inv_mult_;
}

}  // namespace felis::gs

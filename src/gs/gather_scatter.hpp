/// \file gather_scatter.hpp
/// \brief Two-phase gather–scatter ensuring C⁰ continuity across elements.
///
/// "The key component of the scalability in Neko is due to the so-called
/// gather-scatter operation, performing the communication along element
/// boundaries and enabling a fast evaluation of differential operators in a
/// matrix-free fashion. [...] the gather-scatter operation [is] carried out
/// in two phases, one for the local and one for the shared elements between
/// different MPI ranks." (§6)
///
/// felis implements exactly this. Setup sorts the rank's dofs by global id
/// and keeps only the ids that need work, in two compact lists:
///
///  - local ids (duplicated on this rank, no remote sharer): ONE fused pass
///    combines an id's duplicates and writes the result straight back;
///  - shared ids (held by at least one other rank): a gather of the local
///    partials, a neighbour exchange of those partials (canonically ordered
///    by global id so both sides agree), and a scatter of the combined value
///    to every local duplicate. The local pass runs while the messages are
///    in flight.
///
/// Ids held once by one rank (element interiors) are not touched at all.
/// The combine order of an id's values is fixed: its local dofs in setup
/// order, then each neighbour's partial in ascending rank order.
///
/// The operator also reports its communication footprint (neighbour count,
/// doubles exchanged), which feeds the strong-scaling performance model.
#pragma once

#include <vector>

#include "comm/comm.hpp"
#include "common/profiler.hpp"
#include "device/backend.hpp"
#include "mesh/partition.hpp"

namespace felis::gs {

enum class GsOp { kAdd, kMin, kMax };

class GatherScatter {
 public:
  /// Build from an arbitrary per-dof global id array (one entry per local
  /// dof). Used directly by the coarse-grid (degree-1) space.
  ///
  /// `channel` separates the message streams of GatherScatter instances that
  /// may run *concurrently* on different threads of the same rank (the
  /// task-overlapped preconditioner runs the coarse-grid GS in parallel with
  /// the fine-level GS, §5.3). Instances used concurrently must use distinct
  /// channels; all ranks must pass the same channel for the same instance.
  ///
  /// `backend` dispatches the local gather/scatter phases (null = process
  /// default). The neighbour exchange stays on the calling thread.
  GatherScatter(const std::vector<gidx_t>& node_ids, comm::Communicator& comm,
                int channel = 0, device::Backend* backend = nullptr);

  /// Convenience: the ids of a rank-local mesh.
  GatherScatter(const mesh::LocalMesh& lmesh, comm::Communicator& comm,
                int channel = 0, device::Backend* backend = nullptr)
      : GatherScatter(lmesh.node_ids, comm, channel, backend) {}

  /// In-place gather–scatter on a local dof vector.
  void apply(RealVec& field, GsOp op, Profiler* prof = nullptr) const;

  /// 1 / multiplicity per local dof (counting duplicates on all ranks).
  /// Computed on first use. Multiplying by this after an additive GS yields
  /// the averaging operator used to make fields continuous.
  const RealVec& inverse_multiplicity() const;

  usize num_local_dofs() const { return num_dofs_; }
  /// Ranks this rank exchanges messages with.
  usize num_neighbors() const { return neighbors_.size(); }
  /// Total doubles sent per apply() (one per shared id per neighbour).
  usize send_doubles_per_apply() const;

 private:
  device::Backend& dev() const {
    return backend_ != nullptr ? *backend_ : device::default_backend();
  }

  template <class Combine>
  void apply_with(RealVec& field, Combine combine, Profiler* prof) const;

  comm::Communicator& comm_;
  device::Backend* backend_ = nullptr;  ///< null = process default
  usize num_dofs_ = 0;
  int tag_ = 0;

  // CSR id lists: the dofs of the u-th local (resp. shared) id are
  // local_dofs_[local_start_[u] .. local_start_[u+1]) (resp. shared_*).
  std::vector<lidx_t> local_start_;
  std::vector<lidx_t> local_dofs_;
  std::vector<lidx_t> shared_start_;
  std::vector<lidx_t> shared_dofs_;

  // Shared-node exchange: for neighbour i, shared_pos_[i] lists indices into
  // the shared-id list, ordered by ascending global id on both sides.
  std::vector<int> neighbors_;
  std::vector<std::vector<lidx_t>> shared_pos_;

  mutable RealVec inv_mult_;  // lazily built
};

}  // namespace felis::gs

// Tests for the two-phase gather-scatter: serial correctness against a dense
// reference, bitwise agreement with the documented combine order on slab,
// periodic and cylinder meshes at several rank counts, multi-rank
// equivalence to the serial result, multiplicities, and min/max operations
// (used for Dirichlet masks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "gs/gather_scatter.hpp"
#include "mesh/hex_mesh.hpp"
#include "mesh/partition.hpp"

namespace felis::gs {
namespace {

/// Dense reference: combine all values with equal global id.
RealVec reference_gs(const std::vector<gidx_t>& ids, const RealVec& field,
                     GsOp op) {
  std::map<gidx_t, real_t> combined;
  for (usize i = 0; i < ids.size(); ++i) {
    const auto [it, inserted] = combined.emplace(ids[i], field[i]);
    if (!inserted) {
      switch (op) {
        case GsOp::kAdd: it->second += field[i]; break;
        case GsOp::kMin: it->second = std::min(it->second, field[i]); break;
        case GsOp::kMax: it->second = std::max(it->second, field[i]); break;
      }
    }
  }
  RealVec out(field.size());
  for (usize i = 0; i < ids.size(); ++i) out[i] = combined[ids[i]];
  return out;
}

RealVec test_field(usize n, int salt = 0) {
  RealVec f(n);
  for (usize i = 0; i < n; ++i)
    f[i] = std::sin(0.37 * static_cast<real_t>(i) + salt) + 0.01 * static_cast<real_t>(i % 17);
  return f;
}

TEST(GatherScatterSerial, MatchesDenseReferenceAllOps) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = 3;
  cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const auto lm = mesh::distribute_mesh(mesh, 4, 1).front();
  comm::SelfComm comm;
  const GatherScatter gs(lm, comm);
  for (const GsOp op : {GsOp::kAdd, GsOp::kMin, GsOp::kMax}) {
    RealVec f = test_field(static_cast<usize>(lm.num_local_dofs()));
    const RealVec expect = reference_gs(lm.node_ids, f, op);
    gs.apply(f, op);
    // Summation order differs between the reference and the two-phase GS,
    // so agreement is to roundoff, not bitwise.
    for (usize i = 0; i < f.size(); ++i)
      ASSERT_NEAR(f[i], expect[i], 1e-13) << "op=" << static_cast<int>(op) << " i=" << i;
  }
}

TEST(GatherScatterSerial, PeriodicMeshWrapsCorrectly) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  cfg.periodic_x = cfg.periodic_y = cfg.periodic_z = true;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const auto lm = mesh::distribute_mesh(mesh, 3, 1).front();
  comm::SelfComm comm;
  const GatherScatter gs(lm, comm);
  // In a fully periodic mesh every node lies on an element boundary or
  // interior; multiplicities of corner nodes are 8.
  const RealVec& inv_mult = gs.inverse_multiplicity();
  real_t min_inv = 1.0;
  for (const real_t v : inv_mult) min_inv = std::min(min_inv, v);
  EXPECT_DOUBLE_EQ(min_inv, 1.0 / 8.0);
}

TEST(GatherScatterSerial, InverseMultiplicityAveragesToConstant) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 2;
  const auto lm = mesh::distribute_mesh(make_box_mesh(cfg), 5, 1).front();
  comm::SelfComm comm;
  const GatherScatter gs(lm, comm);
  // gs-add of a continuous field then scaling by 1/mult must reproduce it.
  RealVec f(static_cast<usize>(lm.num_local_dofs()), 3.75);
  gs.apply(f, GsOp::kAdd);
  const RealVec& inv = gs.inverse_multiplicity();
  for (usize i = 0; i < f.size(); ++i) EXPECT_NEAR(f[i] * inv[i], 3.75, 1e-13);
}

real_t combine_ref(GsOp op, real_t a, real_t b) {
  switch (op) {
    case GsOp::kAdd: return a + b;
    case GsOp::kMin: return a < b ? a : b;
    case GsOp::kMax: return a > b ? a : b;
  }
  return a;
}

/// The combine order of GatherScatter written out densely over all ranks:
/// on each rank an id's local dofs combine in the order a std::sort of the
/// dof indices by id leaves them, and every other rank's partial for that
/// id follows in ascending rank order.
std::vector<RealVec> ordered_reference(const std::vector<mesh::LocalMesh>& locals,
                                       const std::vector<RealVec>& fields,
                                       GsOp op) {
  std::vector<std::map<gidx_t, real_t>> partial(locals.size());
  for (usize r = 0; r < locals.size(); ++r) {
    const std::vector<gidx_t>& ids = locals[r].node_ids;
    std::vector<lidx_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](lidx_t a, lidx_t b) {
      return ids[static_cast<usize>(a)] < ids[static_cast<usize>(b)];
    });
    for (const lidx_t d : order) {
      const real_t x = fields[r][static_cast<usize>(d)];
      const auto [it, inserted] = partial[r].emplace(ids[static_cast<usize>(d)], x);
      if (!inserted) it->second = combine_ref(op, it->second, x);
    }
  }
  std::vector<RealVec> out(locals.size());
  for (usize r = 0; r < locals.size(); ++r) {
    out[r].resize(fields[r].size());
    for (usize d = 0; d < out[r].size(); ++d) {
      const gidx_t id = locals[r].node_ids[d];
      real_t v = partial[r].at(id);
      for (usize q = 0; q < locals.size(); ++q) {
        if (q == r) continue;
        const auto it = partial[q].find(id);
        if (it != partial[q].end()) v = combine_ref(op, v, it->second);
      }
      out[r][d] = v;
    }
  }
  return out;
}

struct OrderedGsCase {
  const char* mesh;
  int nranks;
};

class GatherScatterOrdered : public ::testing::TestWithParam<OrderedGsCase> {};

TEST_P(GatherScatterOrdered, MatchesOrderedDenseReferenceBitwise) {
  const OrderedGsCase& param = GetParam();
  const std::string kind = param.mesh;
  mesh::HexMesh mesh;
  if (kind == "cylinder") {
    mesh::CylinderMeshConfig cyl;
    cyl.nz = 3;
    mesh = make_cylinder_mesh(cyl);
  } else {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 3;
    cfg.periodic_x = cfg.periodic_y = true;
    cfg.periodic_z = (kind == "periodic");
    mesh = make_box_mesh(cfg);
  }
  const auto locals = mesh::distribute_mesh(mesh, 3, param.nranks);
  std::vector<RealVec> fields(locals.size());
  for (usize r = 0; r < locals.size(); ++r) {
    // Wide exponent range, so any change of combine order shows in the bits.
    fields[r] = test_field(static_cast<usize>(locals[r].num_local_dofs()),
                           static_cast<int>(r));
    for (usize i = 0; i < fields[r].size(); ++i)
      fields[r][i] *= std::exp2(static_cast<real_t>((i * 13 + r) % 37) - 18);
  }
  for (const GsOp op : {GsOp::kAdd, GsOp::kMin, GsOp::kMax}) {
    const std::vector<RealVec> expect = ordered_reference(locals, fields, op);
    comm::run_parallel(param.nranks, [&](comm::Communicator& comm) {
      const usize r = static_cast<usize>(comm.rank());
      device::SerialBackend serial;
      device::OpenMpBackend omp(2);
      for (device::Backend* backend :
           std::initializer_list<device::Backend*>{&serial, &omp}) {
        // No early return on a mismatch: every rank must reach every
        // collective, or the others would wait forever.
        const GatherScatter gs(locals[r], comm, 0, backend);
        RealVec f = fields[r];
        gs.apply(f, op);
        usize mismatches = 0, first = 0;
        for (usize i = 0; i < f.size(); ++i)
          if (f[i] != expect[r][i] && mismatches++ == 0) first = i;
        EXPECT_EQ(mismatches, 0u)
            << kind << " rank " << r << "/" << param.nranks << " op "
            << static_cast<int>(op) << " " << backend->name()
            << ": first differing dof " << first;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, GatherScatterOrdered,
    ::testing::Values(OrderedGsCase{"slab", 1}, OrderedGsCase{"slab", 2},
                      OrderedGsCase{"slab", 4}, OrderedGsCase{"periodic", 1},
                      OrderedGsCase{"periodic", 2}, OrderedGsCase{"periodic", 4},
                      OrderedGsCase{"cylinder", 1}, OrderedGsCase{"cylinder", 2},
                      OrderedGsCase{"cylinder", 4}),
    [](const ::testing::TestParamInfo<OrderedGsCase>& info) {
      return std::string(info.param.mesh) + std::to_string(info.param.nranks);
    });

class GatherScatterParallel : public ::testing::TestWithParam<int> {};

TEST_P(GatherScatterParallel, MatchesSerialResult) {
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const int N = 3;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const mesh::GlobalNumbering num = build_numbering(mesh, N);
  // Serial reference over the full mesh.
  const auto serial = mesh::split_mesh(mesh, num, std::vector<int>(27, 0), 1).front();
  RealVec serial_field = test_field(static_cast<usize>(serial.num_local_dofs()));
  const RealVec serial_ref = reference_gs(serial.node_ids, serial_field, GsOp::kAdd);

  const auto locals = mesh::distribute_mesh(mesh, N, nranks);
  // Global-id → expected value, from the serial reference.
  std::map<gidx_t, real_t> expect;
  std::map<gidx_t, real_t> input;  // per-id per-occurrence input must match
  // Build the distributed input so that summing over all occurrences
  // globally matches the serial sums: use a value determined by the global
  // *occurrence* identity (element gid + local node), identical in both runs.
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    const mesh::LocalMesh& lm = locals[static_cast<usize>(comm.rank())];
    const GatherScatter gs(lm, comm);
    const lidx_t npe = lm.nodes_per_element();
    RealVec f(static_cast<usize>(lm.num_local_dofs()));
    for (lidx_t e = 0; e < lm.num_elements(); ++e) {
      const gidx_t ge = lm.element_gids[static_cast<usize>(e)];
      for (lidx_t q = 0; q < npe; ++q)
        f[static_cast<usize>(e * npe + q)] =
            serial_field[static_cast<usize>(ge * npe + q)];
    }
    gs.apply(f, GsOp::kAdd);
    for (lidx_t e = 0; e < lm.num_elements(); ++e) {
      const gidx_t ge = lm.element_gids[static_cast<usize>(e)];
      for (lidx_t q = 0; q < npe; ++q)
        ASSERT_NEAR(f[static_cast<usize>(e * npe + q)],
                    serial_ref[static_cast<usize>(ge * npe + q)], 1e-12)
            << "rank " << comm.rank() << " elem " << e << " node " << q;
    }
  });
}

TEST_P(GatherScatterParallel, MultiplicityConsistentAcrossRanks) {
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const auto locals = mesh::distribute_mesh(mesh, 2, nranks);
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    const mesh::LocalMesh& lm = locals[static_cast<usize>(comm.rank())];
    const GatherScatter gs(lm, comm);
    // Multiplicity of a mesh-corner vertex shared by 8 elements must be 8
    // even when those elements live on different ranks: check the global
    // minimum of inverse multiplicity.
    const RealVec& inv = gs.inverse_multiplicity();
    real_t min_inv = 1.0;
    for (const real_t v : inv) min_inv = std::min(min_inv, v);
    real_t global_min = min_inv;
    comm.allreduce(&global_min, 1, comm::ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(global_min, 1.0 / 8.0);
  });
}

TEST_P(GatherScatterParallel, MaskPropagationWithMinOp) {
  // The Dirichlet-mask pattern: zeros on boundary faces must propagate to
  // every rank sharing those nodes.
  const int nranks = GetParam();
  mesh::BoxMeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 3;
  const int N = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const auto locals = mesh::distribute_mesh(mesh, N, nranks);
  comm::run_parallel(nranks, [&](comm::Communicator& comm) {
    const mesh::LocalMesh& lm = locals[static_cast<usize>(comm.rank())];
    const GatherScatter gs(lm, comm);
    RealVec mask(static_cast<usize>(lm.num_local_dofs()), 1.0);
    // Zero out nodes of faces tagged kBottom on the elements that own them.
    const lidx_t npe = lm.nodes_per_element();
    const int n = lm.degree + 1;
    for (lidx_t e = 0; e < lm.num_elements(); ++e) {
      if (lm.face_tags[static_cast<usize>(e)][4] != mesh::FaceTag::kBottom) continue;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          mask[static_cast<usize>(e * npe + i + n * j)] = 0.0;
    }
    gs.apply(mask, GsOp::kMin);
    // Count zeros globally: nodes on the bottom plate = (3N+1)².
    real_t zeros = 0;
    std::map<gidx_t, bool> seen;
    for (usize i = 0; i < mask.size(); ++i) {
      if (mask[i] == 0.0 && !seen[lm.node_ids[i]]) {
        seen[lm.node_ids[i]] = true;
        zeros += 1;
      }
    }
    comm.allreduce(&zeros, 1, comm::ReduceOp::kSum);
    // Nodes shared between ranks are counted once per rank; so the count is
    // >= the exact plate node count and <= count × nranks.
    const real_t plate_nodes = (3.0 * N + 1) * (3.0 * N + 1);
    EXPECT_GE(zeros, plate_nodes);
    EXPECT_LE(zeros, plate_nodes * nranks);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GatherScatterParallel,
                         ::testing::Values(1, 2, 4, 8));

TEST(GatherScatterStats, NeighborAndVolumeAccounting) {
  mesh::BoxMeshConfig cfg;
  cfg.nx = 4;
  cfg.ny = cfg.nz = 2;
  const mesh::HexMesh mesh = make_box_mesh(cfg);
  const auto locals = mesh::distribute_mesh(mesh, 3, 2);
  comm::run_parallel(2, [&](comm::Communicator& comm) {
    const GatherScatter gs(locals[static_cast<usize>(comm.rank())], comm);
    EXPECT_EQ(gs.num_neighbors(), 1u);
    EXPECT_GT(gs.send_doubles_per_apply(), 0u);
    // RCB splits the 4-long direction in half: the shared interface is a
    // 2×2-element plane of (2·3+1)² = 49 nodes.
    EXPECT_EQ(gs.send_doubles_per_apply(), 49u);
  });
}

}  // namespace
}  // namespace felis::gs

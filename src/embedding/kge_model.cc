#include "embedding/kge_model.h"

#include <algorithm>

#include "embedding/compgcn.h"
#include "embedding/rotate.h"
#include "embedding/transe.h"
#include "tensor/simd/simd.h"

namespace daakg {
namespace {

// Scales each row of `m` whose norm (daakg::Norm) exceeds `max_norm` back
// to that norm.
void CapRowNorms(Matrix* m, float max_norm) {
  const simd::Ops& ops = simd::ActiveOps();
  for (size_t r = 0; r < m->rows(); ++r) {
    float* row = m->RowData(r);
    const float n = Norm(row, m->cols());
    if (n > max_norm) ops.scale(row, m->cols(), max_norm / n);
  }
}

}  // namespace

KgeModel::KgeModel(const KnowledgeGraph* kg, const KgeConfig& config)
    : kg_(kg), config_(config) {
  DAAKG_CHECK(kg->finalized());
  entities_ = Matrix(kg->num_entities(), config.dim);
  relations_ = Matrix(kg->num_relations(), config.dim);
}

void KgeModel::Init(Rng* rng) {
  BumpVersion();
  entities_.InitXavier(rng);
  relations_.InitXavier(rng);
  NormalizeEntities();
}

Vector KgeModel::EntityRepr(EntityId e) const {
  Vector out(dim());
  EntityReprInto(e, out.data());
  return out;
}

void KgeModel::EntityReprInto(EntityId e, float* out) const {
  const float* row = entities_.RowData(e);
  std::copy(row, row + dim(), out);
}

Vector KgeModel::RelationRepr(RelationId r) const { return relations_.Row(r); }

void KgeModel::BackpropEntityRepr(EntityId e, const Vector& grad, float lr) {
  BumpVersion();
  entities_.RowAxpy(e, -lr, grad);
}

void KgeModel::BackpropRelationRepr(RelationId r, const Vector& grad,
                                    float lr) {
  BumpVersion();
  relations_.RowAxpy(r, -lr, grad);
}

void KgeModel::NormalizeEntities() {
  BumpVersion();
  CapRowNorms(&entities_, 1.0f);
}

void KgeModel::NormalizeRelations() {
  BumpVersion();
  CapRowNorms(&relations_, 2.0f);
}

StatusOr<KgeModelKind> ParseKgeModelKind(std::string_view name) {
  if (name == "transe") return KgeModelKind::kTransE;
  if (name == "rotate") return KgeModelKind::kRotatE;
  if (name == "compgcn") return KgeModelKind::kCompGcn;
  return InvalidArgumentError("unknown KGE model: \"" + std::string(name) +
                              "\" (expected transe, rotate, or compgcn)");
}

std::string_view KgeModelKindToString(KgeModelKind kind) {
  switch (kind) {
    case KgeModelKind::kTransE:
      return "transe";
    case KgeModelKind::kRotatE:
      return "rotate";
    case KgeModelKind::kCompGcn:
      return "compgcn";
  }
  return "<invalid>";
}

std::unique_ptr<KgeModel> MakeKgeModel(KgeModelKind kind,
                                       const KnowledgeGraph* kg,
                                       const KgeConfig& config) {
  switch (kind) {
    case KgeModelKind::kTransE:
      return std::make_unique<TransE>(kg, config);
    case KgeModelKind::kRotatE:
      return std::make_unique<RotatE>(kg, config);
    case KgeModelKind::kCompGcn:
      return std::make_unique<CompGcn>(kg, config);
  }
  return nullptr;
}

}  // namespace daakg

// Custom-KG demo: build two small knowledge graphs programmatically (a
// movie catalog in two "databases" with different schemata), persist them
// in the OpenEA-style TSV layout, reload, align, and export the result —
// the workflow a downstream user follows for their own data.
//
// Run: ./build/examples/custom_kg

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "core/daakg.h"
#include "kg/io.h"

using namespace daakg;  // NOLINT: example code favors brevity

namespace {

// "IMDb-style" KG: films, directors, actors.
void BuildKg1(KnowledgeGraph* kg) {
  ClassId film = kg->AddClass("Film");
  ClassId person = kg->AddClass("Person");
  RelationId directed = kg->AddRelation("directedBy");
  RelationId stars = kg->AddRelation("starring");

  const char* films[] = {"Alien", "Blade_Runner", "The_Matrix", "Heat",
                         "Inception", "Tenet"};
  const char* directors[] = {"Ridley_Scott", "Ridley_Scott",
                             "Lana_Wachowski", "Michael_Mann",
                             "Christopher_Nolan", "Christopher_Nolan"};
  const char* leads[] = {"Sigourney_Weaver", "Harrison_Ford",
                         "Keanu_Reeves", "Al_Pacino",
                         "Leonardo_DiCaprio", "John_David_Washington"};
  for (int i = 0; i < 6; ++i) {
    EntityId f = kg->AddEntity(films[i]);
    EntityId d = kg->AddEntity(directors[i]);
    EntityId a = kg->AddEntity(leads[i]);
    kg->AddTypeTriplet(f, film);
    kg->AddTypeTriplet(d, person);
    kg->AddTypeTriplet(a, person);
    kg->AddTriplet(f, directed, d);
    kg->AddTriplet(f, stars, a);
  }
  DAAKG_CHECK(kg->Finalize().ok());
}

// "Wikidata-style" KG: same movies under opaque ids and a different schema
// vocabulary; Tenet is missing (dangling on the KG1 side).
void BuildKg2(KnowledgeGraph* kg, std::vector<std::string>* q_of_name) {
  ClassId movie = kg->AddClass("Q11424_movie");
  ClassId human = kg->AddClass("Q5_human");
  RelationId director = kg->AddRelation("P57_director");
  RelationId cast = kg->AddRelation("P161_cast_member");

  const char* films[] = {"Alien", "Blade_Runner", "The_Matrix", "Heat",
                         "Inception"};
  const char* directors[] = {"Ridley_Scott", "Ridley_Scott",
                             "Lana_Wachowski", "Michael_Mann",
                             "Christopher_Nolan"};
  const char* leads[] = {"Sigourney_Weaver", "Harrison_Ford",
                         "Keanu_Reeves", "Al_Pacino", "Leonardo_DiCaprio"};
  // One opaque Q-id per distinct real-world thing.
  int next_q = 100;
  std::map<std::string, EntityId> by_name;
  auto entity_for = [&](const char* name) {
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    EntityId id = kg->AddEntity("Q" + std::to_string(next_q++));
    q_of_name->push_back(name);
    by_name.emplace(name, id);
    return id;
  };
  for (int i = 0; i < 5; ++i) {
    EntityId f = entity_for(films[i]);
    EntityId d = entity_for(directors[i]);
    EntityId a = entity_for(leads[i]);
    kg->AddTypeTriplet(f, movie);
    kg->AddTypeTriplet(d, human);
    kg->AddTypeTriplet(a, human);
    kg->AddTriplet(f, director, d);
    kg->AddTriplet(f, cast, a);
  }
  DAAKG_CHECK(kg->Finalize().ok());
}

}  // namespace

int main() {
  AlignmentTask task;
  task.name = "movies";
  std::vector<std::string> q_names;
  BuildKg1(&task.kg1);
  BuildKg2(&task.kg2, &q_names);

  // Gold alignment (by construction): KG2 entity i corresponds to the KG1
  // entity whose name is q_names[i]. Duplicate names (Ridley Scott,
  // Christopher Nolan) map to the same KG1 entity; keep the first.
  std::vector<bool> used1(task.kg1.num_entities(), false);
  for (EntityId e2 = 0; e2 < task.kg2.num_entities(); ++e2) {
    EntityId e1 = task.kg1.FindEntity(q_names[e2]);
    if (e1 == kInvalidId || used1[e1]) continue;
    used1[e1] = true;
    task.gold_entities.emplace_back(e1, e2);
  }
  task.gold_relations = {{0, 0}, {1, 1}};
  task.gold_classes = {{0, 0}, {1, 1}};
  task.BuildGoldIndex();

  // Persist and reload via the TSV layout (what real pipelines do), under a
  // fresh temporary directory; SaveAlignmentTask creates the task directory.
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "daakg_custom_kg.XXXXXX")
          .string();
  DAAKG_CHECK(mkdtemp(tmpl.data()) != nullptr);
  const std::string dir = tmpl + "/movies";
  DAAKG_CHECK(SaveAlignmentTask(task, dir).ok());
  auto reloaded = LoadAlignmentTask(dir);
  DAAKG_CHECK(reloaded.ok());
  std::printf("saved + reloaded task from %s: %zu vs %zu entities, "
              "%zu gold matches\n", dir.c_str(),
              reloaded->kg1.num_entities(), reloaded->kg2.num_entities(),
              reloaded->gold_entities.size());
  std::filesystem::remove_all(tmpl);

  // Tiny graphs: give DAAKG a half of the matches as seeds.
  DaakgConfig config;
  config.kge_model = KgeModelKind::kTransE;
  config.kge.dim = 16;
  config.kge.class_dim = 8;
  config.align.align_epochs = 80;
  auto aligner_or = DaakgAligner::Create(&*reloaded, config);
  if (!aligner_or.ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 aligner_or.status().ToString().c_str());
    return 1;
  }
  DaakgAligner& aligner = **aligner_or;
  Rng rng(3);
  aligner.Train(reloaded->SampleSeed(0.5, &rng));

  auto alignment = aligner.ExtractAlignment();
  std::printf("\npredicted entity matches:\n");
  size_t correct = 0;
  for (const auto& [e1, e2] : alignment.entities) {
    bool gold = reloaded->IsGoldEntityMatch(e1, e2);
    correct += gold;
    std::printf("  %-24s <-> %-8s %s\n",
                reloaded->kg1.entity_name(e1).c_str(),
                reloaded->kg2.entity_name(e2).c_str(), gold ? "[gold]" : "");
  }
  std::printf("%zu/%zu predicted matches are gold.\n", correct,
              alignment.entities.size());
  std::printf("schema: %zu relation matches, %zu class matches predicted.\n",
              alignment.relations.size(), alignment.classes.size());
  return 0;
}

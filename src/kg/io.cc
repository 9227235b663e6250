#include "kg/io.h"

#include <filesystem>
#include <sstream>
#include <system_error>

#include "common/file_util.h"
#include "common/string_util.h"

namespace daakg {
namespace {

bool SkippableLine(const std::string& line) {
  std::string_view t = StrTrim(line);
  return t.empty() || t.front() == '#';
}

StatusOr<std::vector<std::pair<std::string, std::string>>> LoadNamePairs(
    const std::string& path) {
  DAAKG_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (SkippableLine(lines[i])) continue;
    std::vector<std::string> fields = StrSplit(lines[i], '\t');
    if (fields.size() != 2) {
      return InvalidArgumentError(StrFormat(
          "%s:%zu: expected 2 tab-separated fields, got %zu", path.c_str(),
          i + 1, fields.size()));
    }
    pairs.emplace_back(std::move(fields[0]), std::move(fields[1]));
  }
  return pairs;
}

// Adds the relational and type triplets of a triples file to `kg`.
Status ParseTriples(const std::string& path, const std::string& type_relation,
                    KnowledgeGraph* kg) {
  DAAKG_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  for (size_t i = 0; i < lines.size(); ++i) {
    if (SkippableLine(lines[i])) continue;
    std::vector<std::string> fields = StrSplit(lines[i], '\t');
    if (fields.size() != 3) {
      return InvalidArgumentError(StrFormat(
          "%s:%zu: expected 3 tab-separated fields, got %zu", path.c_str(),
          i + 1, fields.size()));
    }
    EntityId head = kg->AddEntity(fields[0]);
    if (fields[1] == type_relation) {
      ClassId cls = kg->AddClass(fields[2]);
      kg->AddTypeTriplet(head, cls);
    } else {
      RelationId rel = kg->AddRelation(fields[1]);
      EntityId tail = kg->AddEntity(fields[2]);
      kg->AddTriplet(head, rel, tail);
    }
  }
  return Status::Ok();
}

// Vocabulary files of a task directory: one name per line, in id order.
std::string VocabPath(const std::string& dir, const char* kg,
                      const char* kind) {
  return dir + "/" + kg + "_" + kind + ".tsv";
}

// Loads `<dir>/<kg>_triples.tsv`. When the vocabulary files exist their
// names are added first, so ids (and elements without triplets) survive.
StatusOr<KnowledgeGraph> LoadTaskKg(const std::string& dir,
                                    const char* kg_name) {
  KnowledgeGraph kg;
  // `add` returns the element's id, which must be its line number.
  auto add_names = [&](const char* kind, auto add) -> Status {
    const std::string path = VocabPath(dir, kg_name, kind);
    if (!FileExists(path)) return Status::Ok();
    DAAKG_ASSIGN_OR_RETURN(std::vector<std::string> names, ReadLines(path));
    for (size_t i = 0; i < names.size(); ++i) {
      if (add(names[i]) != i) {
        return InvalidArgumentError(path + ": duplicate name " + names[i]);
      }
    }
    return Status::Ok();
  };
  DAAKG_RETURN_IF_ERROR(add_names(
      "entities", [&](const std::string& n) { return kg.AddEntity(n); }));
  DAAKG_RETURN_IF_ERROR(add_names(
      "relations", [&](const std::string& n) { return kg.AddRelation(n); }));
  DAAKG_RETURN_IF_ERROR(add_names(
      "classes", [&](const std::string& n) { return kg.AddClass(n); }));
  DAAKG_RETURN_IF_ERROR(ParseTriples(
      dir + "/" + kg_name + "_triples.tsv", kDefaultTypeRelation, &kg));
  DAAKG_RETURN_IF_ERROR(kg.Finalize());
  return kg;
}

Status SaveTaskKg(const KnowledgeGraph& kg, const std::string& dir,
                  const char* kg_name) {
  auto write_names = [&](const char* kind, size_t n, auto name_of) {
    std::ostringstream out;
    for (uint32_t i = 0; i < n; ++i) out << name_of(i) << '\n';
    return WriteStringToFile(VocabPath(dir, kg_name, kind), out.str());
  };
  DAAKG_RETURN_IF_ERROR(write_names(
      "entities", kg.num_entities(),
      [&](uint32_t e) -> const std::string& { return kg.entity_name(e); }));
  DAAKG_RETURN_IF_ERROR(write_names(
      "relations", kg.num_base_relations(),
      [&](uint32_t r) -> const std::string& { return kg.relation_name(r); }));
  DAAKG_RETURN_IF_ERROR(write_names(
      "classes", kg.num_classes(),
      [&](uint32_t c) -> const std::string& { return kg.class_name(c); }));
  return SaveKgToTsv(kg, dir + "/" + kg_name + "_triples.tsv");
}

}  // namespace

StatusOr<KnowledgeGraph> LoadKgFromTsv(const std::string& path,
                                       const std::string& type_relation) {
  KnowledgeGraph kg;
  DAAKG_RETURN_IF_ERROR(ParseTriples(path, type_relation, &kg));
  DAAKG_RETURN_IF_ERROR(kg.Finalize());
  return kg;
}

Status SaveKgToTsv(const KnowledgeGraph& kg, const std::string& path,
                   const std::string& type_relation) {
  std::ostringstream out;
  for (const Triplet& t : kg.triplets()) {
    if (kg.IsReverseRelation(t.relation)) continue;
    out << kg.entity_name(t.head) << '\t' << kg.relation_name(t.relation)
        << '\t' << kg.entity_name(t.tail) << '\n';
  }
  for (const TypeTriplet& t : kg.type_triplets()) {
    out << kg.entity_name(t.entity) << '\t' << type_relation << '\t'
        << kg.class_name(t.cls) << '\n';
  }
  return WriteStringToFile(path, out.str());
}

StatusOr<AlignmentTask> LoadAlignmentTask(const std::string& dir) {
  AlignmentTask task;
  task.name = dir;
  DAAKG_ASSIGN_OR_RETURN(task.kg1, LoadTaskKg(dir, "kg1"));
  DAAKG_ASSIGN_OR_RETURN(task.kg2, LoadTaskKg(dir, "kg2"));

  DAAKG_ASSIGN_OR_RETURN(auto ent_pairs,
                         LoadNamePairs(dir + "/ent_matches.tsv"));
  for (const auto& [n1, n2] : ent_pairs) {
    EntityId e1 = task.kg1.FindEntity(n1);
    EntityId e2 = task.kg2.FindEntity(n2);
    if (e1 == kInvalidId || e2 == kInvalidId) {
      return InvalidArgumentError("unknown entity in ent_matches.tsv: " + n1 +
                                  " / " + n2);
    }
    task.gold_entities.emplace_back(e1, e2);
  }

  if (FileExists(dir + "/rel_matches.tsv")) {
    DAAKG_ASSIGN_OR_RETURN(auto rel_pairs,
                           LoadNamePairs(dir + "/rel_matches.tsv"));
    for (const auto& [n1, n2] : rel_pairs) {
      RelationId r1 = task.kg1.FindRelation(n1);
      RelationId r2 = task.kg2.FindRelation(n2);
      if (r1 == kInvalidId || r2 == kInvalidId) {
        return InvalidArgumentError("unknown relation in rel_matches.tsv: " +
                                    n1 + " / " + n2);
      }
      task.gold_relations.emplace_back(r1, r2);
    }
  }

  if (FileExists(dir + "/cls_matches.tsv")) {
    DAAKG_ASSIGN_OR_RETURN(auto cls_pairs,
                           LoadNamePairs(dir + "/cls_matches.tsv"));
    for (const auto& [n1, n2] : cls_pairs) {
      ClassId c1 = task.kg1.FindClass(n1);
      ClassId c2 = task.kg2.FindClass(n2);
      if (c1 == kInvalidId || c2 == kInvalidId) {
        return InvalidArgumentError("unknown class in cls_matches.tsv: " + n1 +
                                    " / " + n2);
      }
      task.gold_classes.emplace_back(c1, c2);
    }
  }

  task.BuildGoldIndex();
  return task;
}

Status SaveAlignmentTask(const AlignmentTask& task, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return IoError("cannot create directory " + dir + ": " + ec.message());
  }
  DAAKG_RETURN_IF_ERROR(SaveTaskKg(task.kg1, dir, "kg1"));
  DAAKG_RETURN_IF_ERROR(SaveTaskKg(task.kg2, dir, "kg2"));

  std::ostringstream ents;
  for (const auto& [e1, e2] : task.gold_entities) {
    ents << task.kg1.entity_name(e1) << '\t' << task.kg2.entity_name(e2)
         << '\n';
  }
  DAAKG_RETURN_IF_ERROR(
      WriteStringToFile(dir + "/ent_matches.tsv", ents.str()));

  std::ostringstream rels;
  for (const auto& [r1, r2] : task.gold_relations) {
    rels << task.kg1.relation_name(r1) << '\t' << task.kg2.relation_name(r2)
         << '\n';
  }
  DAAKG_RETURN_IF_ERROR(
      WriteStringToFile(dir + "/rel_matches.tsv", rels.str()));

  std::ostringstream clss;
  for (const auto& [c1, c2] : task.gold_classes) {
    clss << task.kg1.class_name(c1) << '\t' << task.kg2.class_name(c2) << '\n';
  }
  return WriteStringToFile(dir + "/cls_matches.tsv", clss.str());
}

}  // namespace daakg

#!/usr/bin/env python3
"""Compile the repro sources and the benchmark with the Scala compiler that
ships in Spark's jars directory.

    python3 pipebench/build.py        # prints the runtime classpath

Classes go to .bench_build/pipebench/classes-<hash of the sources>, so an
unchanged tree is not compiled twice.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "pipebench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark install: $SPARK_HOME, else the one
    holding spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark install found: set SPARK_HOME")
    return jars


def scala_sources():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        raise BuildError("repro sources not found under src/main/scala; run from a repository checkout")
    out = []
    for d in SOURCE_DIRS:
        for base, _, files in os.walk(d):
            out += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def build():
    """Compile if needed and return the runtime classpath."""
    jars = spark_jars()
    sources = scala_sources()
    h = hashlib.sha256()
    for src in sources:
        h.update(os.path.relpath(src, ROOT).encode())
        with open(src, "rb") as f:
            h.update(f.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    classes = os.path.join(WORK, "classes-" + h.hexdigest()[:16])
    runtime_cp = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(os.path.join(classes, ".done")):
        return runtime_cp

    os.makedirs(WORK, exist_ok=True)
    for old in os.listdir(WORK):
        if old.startswith("classes-"):
            shutil.rmtree(os.path.join(WORK, old))
    os.makedirs(classes)
    compiler = [os.path.join(jars, j) for j in sorted(os.listdir(jars))
                if j.startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("scala-compiler, scala-library and scala-reflect jars not found in " + jars)
    argfile = os.path.join(WORK, "scalac-args")
    with open(argfile, "w") as f:
        f.write("\n".join(["-d", classes, "-classpath", os.path.join(jars, "*"), "-nowarn"] + sources))
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-usejavacp", "@" + argfile]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        shutil.rmtree(classes, ignore_errors=True)
        raise BuildError("scalac failed:\n" + res.stdout[-4000:])
    open(os.path.join(classes, ".done"), "w").close()
    return runtime_cp


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(1)
